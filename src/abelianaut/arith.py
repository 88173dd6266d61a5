"""Integer helpers: deterministic primality, bounded factorization, sieves.

Everything operates on plain Python ints, so there is no overflow anywhere;
the hard limits are the trial-division bound used to keep factorization
of user-supplied moduli at desk scale, and the bound below which the
fixed-base primality test is proved exact.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from math import isqrt

DEFAULT_TRIAL_DIVISOR_LIMIT = 10**6
# Full factorization is certified for n <= DEFAULT_TRIAL_DIVISOR_LIMIT**2:
# once every divisor up to sqrt(n) has been tried, a leftover cofactor
# must be prime.


class InvalidModulus(ValueError):
    """A modulus that is not a positive integer."""


class FactorizationOverflow(ValueError):
    """An integer too large to factor by trial division or to test for primality."""


def is_positive_int(value: object) -> bool:
    """True for an int >= 1; a bool is not taken for an int."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# (a_k, psi_k): the k-th prime base and psi_k, the least strong pseudoprime
# to all of a_1, ..., a_k (OEIS A014233), so the first k bases are exact
# below psi_k.  psi_13 = 3317044064679887385961981 bounds the test
# (Sorenson and Webster, Math. Comp. 86, 2017).
_STRONG_BASES = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751),
    (11, 2152302898747), (13, 3474749660383), (17, 341550071728321),
    (19, 341550071728321), (23, 3825123056546413051),
    (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)


def is_prime(n: int) -> bool:
    """Deterministic primality test (strong pseudoprime test, fixed bases).

    ``n`` must be an int (a bool is not taken for one), else ValueError;
    an int below 2 is not prime.  Exact for every n below psi_13 =
    3317044064679887385961981 and for every n that a base prime (2 up to
    41) divides; any other n from psi_13 on raises
    :class:`FactorizationOverflow` instead of guessing.  The bases are
    tried in turn, and the test stops after the k-th once n < psi_k.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"need an int, got {n!r}")
    if n < 2:
        return False
    for p, _ in _STRONG_BASES:
        if n % p == 0:
            return n == p
    bound = _STRONG_BASES[-1][1]
    if n >= bound:
        raise FactorizationOverflow(
            f"{n} is not below {bound}, the bound of the deterministic primality test"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in _STRONG_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def factorize(n: int) -> dict[int, int]:
    """Factor ``n`` by trial division; keys are primes in increasing order.

    Supports ``n`` up to ``DEFAULT_TRIAL_DIVISOR_LIMIT**2`` (10**12);
    anything larger raises :class:`FactorizationOverflow` rather than
    running forever or returning an uncertified factorization.
    """
    if not is_positive_int(n):
        raise InvalidModulus(f"expected a positive integer, got {n!r}")
    limit = DEFAULT_TRIAL_DIVISOR_LIMIT
    if n > limit * limit:
        raise FactorizationOverflow(
            f"{n} exceeds the factorization bound {limit}**2 = {limit * limit}"
        )
    factors: dict[int, int] = {}
    remaining = n
    d = 2
    while d * d <= remaining:
        if remaining % d == 0:
            e = 0
            while remaining % d == 0:
                remaining //= d
                e += 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if remaining > 1:
        factors[remaining] = 1
    return factors


def primes_up_to(n: int) -> list[int]:
    """All primes <= n: the k >= 2 with no smallest prime factor in the sieve.

    ``n`` must be an int (a bool is not taken for one), else ValueError;
    an int below 2 gives no primes.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"need an int, got {n!r}")
    if n < 2:
        return []  # also ends the recursion through _smallest_prime_factors
    spf = _smallest_prime_factors(n)
    return [k for k in range(2, n + 1) if not spf[k]]


def _smallest_prime_factors(n: int) -> array:
    """For 0 <= k <= n, k's smallest prime factor, or 0 when k is 0, 1 or prime."""
    spf = array("I", [0]) * (n + 1)
    # Largest prime first, so each k keeps the smallest p with p*p <= k.
    for p in reversed(primes_up_to(isqrt(n))):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, n + 1, p))
    return spf


def factorizations_up_to(n: int, step: int = 1) -> Iterator[tuple[int, dict[int, int]]]:
    """``(k, factorize(k))`` for k = step, 2*step, ... <= n in turn, read off a sieve.

    ``step`` is factored once, and each cofactor j = k/step walks
    j -> j / spf(j) down a smallest-prime-factor sieve of the cofactors,
    rebuilt at twice the size whenever j outgrows it: it holds at most
    about 2j machine ints and lives only as long as the iterator.  The
    step's primes are merged into j's only when the step is above 1.

    This is the one sieve that every walk over the orders reads: enumerate,
    verify, the atlas and ``realize``.  It checks neither bound: each caller
    checks its own ``max_order``.  verify reads it only up to
    min(max_order, budget), and counts the shapes of larger order.
    """
    base = factorize(step) if step <= n else {}
    spf = array("I")
    for j in range(1, n // step + 1):
        if j >= len(spf):
            spf = _smallest_prime_factors(min(n // step, 2 * j))
        factors = {}
        m = j
        while m > 1:
            p = spf[m] or m
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
        if base:
            factors = {p: factors.get(p, 0) + base.get(p, 0)
                       for p in sorted(factors.keys() | base.keys())}
        yield j * step, factors

from fractions import Fraction
from math import isqrt

import pytest

from abelianaut.arith import (
    FactorizationOverflow,
    InvalidModulus,
    factorize,
    factorizations_up_to,
    is_prime,
    primes_up_to,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize("n", [True, False, 3.0, 4.5, Fraction(7), "7"], ids=repr)
def test_is_prime_takes_only_integers(n):
    # a bool is an int to Python, and 3.0 and Fraction(7) equal ints, but
    # none of them is taken for one
    with pytest.raises(ValueError):
        is_prime(n)


def test_is_prime_matches_sieve_to_10000():
    sieve = set(primes_up_to(10_000))
    for n in range(2, 10_001):
        assert is_prime(n) == (n in sieve), n


# psi_k of OEIS A014233, the least strong pseudoprime to the first k prime
# bases, for k = 1..13, written out here apart from the table in arith
_PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981]
_FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_equals_trial_division_below_2_10_5():
    for n in range(200_000):
        expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert is_prime(n) == expected, n


@pytest.mark.parametrize("k", range(1, 14))
def test_psi_k_passes_the_first_k_bases_and_is_not_prime(k):
    # a test that stopped after k bases at n = psi_k would call it prime
    psi = _PSI[k - 1]
    assert all(_strong_probable_prime(psi, a) for a in _FIRST_PRIMES[:k])
    if k < 13:
        assert not is_prime(psi)
    else:
        with pytest.raises(FactorizationOverflow):
            is_prime(psi)


def test_is_prime_large():
    assert is_prime(10**12 + 39)  # smallest prime above 10**12
    assert not is_prime(10**12 + 37)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    # psi_12 = 399165290221 * 798330580441: strong pseudoprime to bases 2..37
    assert not is_prime(318665857834031151167461)


def test_is_prime_refuses_at_the_bound_of_its_bases():
    # psi_13 = 1287836182261 * 2575672364521: the 13 bases are exact below it
    for n in (3317044064679887385961981, 10**30 + 57):
        with pytest.raises(FactorizationOverflow):
            is_prime(n)


def test_is_prime_decides_past_the_bound_when_a_base_prime_divides():
    # psi_13 + 2 = 3 * ..., psi_13 + 4 = 5 * 7 * ...: no strong test needed
    for n in (3317044064679887385961983, 3317044064679887385961985, 2 * 10**30):
        assert not is_prime(n)


def test_factorize_basic():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(2**10) == {2: 10}
    assert factorize(999_983) == {999_983: 1}
    # leftover cofactor above the trial-division range is still certified prime
    assert factorize(2 * 1_000_003) == {2: 1, 1_000_003: 1}


def test_factorize_keys_ascending():
    assert list(factorize(2 * 3 * 5 * 49)) == [2, 3, 5, 7]


def test_factorize_rejects_bad_input():
    with pytest.raises(InvalidModulus):
        factorize(0)
    with pytest.raises(InvalidModulus):
        factorize(-6)
    with pytest.raises(FactorizationOverflow):
        factorize(10**12 + 1)


def test_primes_up_to():
    assert primes_up_to(0) == []
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]
    assert primes_up_to(4) == [2, 3]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("n", [True, False, 2.5, 4.0, "5"], ids=repr)
def test_primes_up_to_takes_only_integers(n):
    # the rule of is_prime: any int, but no bool and no other number
    with pytest.raises(ValueError):
        primes_up_to(n)


@pytest.mark.parametrize("step", [1, 2, 12, 30, 97, 2000, 2001])
def test_stepped_sieve_factorizations_equal_trial_division(step):
    got = list(factorizations_up_to(2000, step))
    want = [(k, factorize(k)) for k in range(step, 2001, step)]
    assert got == want
    assert [list(f) for _, f in got] == [list(f) for _, f in want]  # primes ascending

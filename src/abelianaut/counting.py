"""Counts that verify takes without building what it counts.

verify builds the p-group shapes only up to order min(N, budget): a shape
of larger order has |G|^rank >= |G| > budget candidate tuples, so the
oracle would refuse it.  The shapes of order in (min(N, budget), N] are
counted here instead, p(a) of them for each prime power p^a, from the
number of primes at the exact a-th roots of both ends.  Only verify
imports this module, and only when its budget is below N: each one-shot
call compiles the modules it imports, so a call that counts nothing does
not pay for it.
"""

from __future__ import annotations

from math import isqrt


def pgroup_shapes_between(low: int, high: int) -> int:
    """The number of p-group shapes of order in (low, high], for 1 <= low <= high:
    p(a), the number of partitions of a, for each prime p with low < p^a <= high."""
    bits = high.bit_length()  # p^a <= high needs a < bits
    partitions = [1] + [0] * (bits - 1)  # p(a), admitting the parts 1, 2, ... in turn
    for part in range(1, bits):
        for a in range(part, bits):
            partitions[a] += partitions[a - part]
    count = 0
    for a in range(1, bits):
        hi, lo = integer_root(high, a), integer_root(low, a)
        if hi > lo:
            count += partitions[a] * (prime_count(hi) - prime_count(lo))
    return count


def prime_count(n: int) -> int:
    """pi(n), the number of primes <= n, by Legendre's count over the values n // k.

    ``n`` must be an int (a bool is not taken for one), else ValueError;
    an int below 2 counts no primes.  S(v) counts the k in [2, v] not yet
    struck, v - 1 at the start.  Each prime p <= sqrt(n) in turn strikes
    the composites whose smallest prime factor is p: for every v >= p^2,
    S(v) drops by S(v // p) - S(p - 1), where S(p - 1) is the number of
    primes below p.  After the last such p, S(n) = pi(n).  Only the values
    v = n // k occur, since (n // k) // p = n // (k*p): ``small[v]`` holds
    those up to r = isqrt(n) and ``large[k]`` the one at n // k.  That takes
    O(n^(3/4)) steps and O(sqrt(n)) memory, with no sieve of n (D. H.
    Lehmer, Illinois J. Math. 3, 1959, gives faster refinements).
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"need an int, got {n!r}")
    if n < 2:
        return 0
    r = isqrt(n)
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [n // k - 1 for k in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is struck, so composite
        below, p2 = small[p - 1], p * p
        # Each comprehension reads only values of the previous p: large
        # before small, and each side from its own old list.
        top, mid = min(r, n // p2), min(r // p, n // p2)
        large[1 : top + 1] = (
            [large[k] - large[k * p] + below for k in range(1, mid + 1)]
            + [large[k] - small[n // (k * p)] + below for k in range(mid + 1, top + 1)])
        small[p2:] = [small[v] - small[v // p] + below for v in range(p2, r + 1)]
    return large[1]


def integer_root(n: int, a: int) -> int:
    """The largest r with r**a <= n, for ints n >= 1 and a >= 1, by integer Newton steps.

    The start 2**ceil(bits(n)/a) exceeds n^(1/a), and from above each step
    r -> ((a-1)*r + n // r^(a-1)) // a falls strictly until it reaches the root.
    """
    r = 1 << -(-n.bit_length() // a)
    while True:
        s = ((a - 1) * r + n // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s

from bisect import bisect_right
from fractions import Fraction

import pytest

from abelianaut.arith import primes_up_to
from abelianaut.counting import integer_root, prime_count


def test_prime_count_equals_the_sieve():
    primes = primes_up_to(3000)
    for n in range(-3, 3001):
        assert prime_count(n) == bisect_right(primes, n), n
    for n in (10**5, 10**6):
        assert prime_count(n) == len(primes_up_to(n)), n


@pytest.mark.parametrize("n", [True, False, 2.5, 4.0, Fraction(7), "5"], ids=repr)
def test_prime_count_takes_only_integers(n):
    # the rule of primes_up_to: any int, but no bool and no other number
    with pytest.raises(ValueError):
        prime_count(n)


def test_integer_root_is_the_floor_root_at_every_boundary():
    for a in range(1, 13):
        for n in range(1, 5000):
            r = integer_root(n, a)
            assert r**a <= n < (r + 1) ** a, (n, a)
    # exact powers and their neighbours, far past float precision
    for r, a in [(2, 64), (3, 40), (10**6, 2), (10**6 + 3, 3), (2**53 + 1, 2), (97, 9)]:
        assert integer_root(r**a, a) == r
        assert integer_root(r**a - 1, a) == r - 1
        assert integer_root(r**a + 1, a) == r

import random
from math import prod

import pytest

from abelianaut import (
    FactorizationOverflow,
    GroupShape,
    groups_of_order,
    groups_up_to,
    partitions,
)
from abelianaut import enumeration
from abelianaut.arith import factorize, primes_up_to
from abelianaut.enumeration import pgroup_shapes_up_to
from helpers import partition_count


# -------------------------------------------------------------- partitions

def test_partitions_small_exact_order():
    assert list(partitions(1)) == [(1,)]
    assert list(partitions(3)) == [(3,), (1, 2), (1, 1, 1)]
    assert list(partitions(4)) == [(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]


def test_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(partitions(0))


def test_partitions_are_ascending_and_sum_correctly():
    for a in range(1, 13):
        for parts in partitions(a):
            assert sum(parts) == a
            assert all(x <= y for x, y in zip(parts, parts[1:]))


def test_partition_counts_match_pentagonal_recurrence():
    for a in range(1, 16):
        assert len(list(partitions(a))) == partition_count(a), a


def test_partitions_no_duplicates():
    for a in range(1, 13):
        seen = list(partitions(a))
        assert len(seen) == len(set(seen))


# ----------------------------------------------------------- groups by order

def test_groups_of_order_counts():
    assert len(list(groups_of_order(16))) == 5
    assert len(list(groups_of_order(54))) == 3
    assert list(groups_of_order(1)) == [GroupShape()]


def test_groups_of_order_random_counts_match_partition_product():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(1, 2000)
        expected = prod(partition_count(a) for a in factorize(n).values())
        assert len(list(groups_of_order(n))) == expected, n


def test_groups_of_order_all_have_right_order():
    for n in (12, 16, 36, 360):
        for g in groups_of_order(n):
            assert g.order == n


def test_groups_of_order_no_duplicates():
    for n in (16, 64, 72, 720):
        shapes = list(groups_of_order(n))
        assert len(shapes) == len(set(shapes))


def test_groups_of_order_overflow():
    with pytest.raises(FactorizationOverflow):
        list(groups_of_order(10**13))


# ----------------------------------------------------------- groups up to N

def test_groups_up_to_small_exact():
    got = list(groups_up_to(4))
    want = [
        (1, GroupShape()),
        (2, GroupShape.from_exponents({2: [1]})),
        (3, GroupShape.from_exponents({3: [1]})),
        (4, GroupShape.from_exponents({2: [2]})),
        (4, GroupShape.from_exponents({2: [1, 1]})),
    ]
    assert got == want


def test_groups_up_to_counts():
    assert len(list(groups_up_to(1))) == 1
    assert len(list(groups_up_to(8))) == 11


@pytest.mark.parametrize("max_order, step", sorted(
    {(m, step) for m in (1, 300) for step in (1, 2, 6, 7, 30, m, m + 1)}))
def test_groups_up_to_step_keeps_the_multiples_of_step(max_order, step):
    # the stepped sweep realize reads: the step-1 records of the multiples of step
    want = [record for record in enumeration._sweep(max_order) if record[0] % step == 0]
    assert list(enumeration._sweep(max_order, step)) == want


@pytest.mark.parametrize("max_order, step", [(0, 1), (10, 0), (10, -3)])
def test_groups_up_to_rejects_bounds_below_1(max_order, step):
    with pytest.raises(ValueError):  # when called, before any record is read
        enumeration._sweep(max_order, step)


def test_stream_deterministic():
    first = list(groups_up_to(120))
    second = list(groups_up_to(120))
    assert first == second


# ------------------------------------------------------- p-group shapes

def test_pgroup_shapes_up_to_counts_match_partition_function():
    for n in (64, 300):
        expected = sum(partition_count(a) for p in primes_up_to(n)
                       for a in range(1, n.bit_length()) if p**a <= n)
        assert len(list(pgroup_shapes_up_to(n))) == expected, n


def test_pgroup_shapes_up_to_order_and_bound():
    shapes = list(pgroup_shapes_up_to(9))
    assert [(s.p, s.exponents) for s in shapes] == [
        (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (3,)), (2, (1, 2)), (2, (1, 1, 1)),
        (3, (1,)), (3, (2,)), (3, (1, 1)), (5, (1,)), (7, (1,))]
    assert list(pgroup_shapes_up_to(1)) == []

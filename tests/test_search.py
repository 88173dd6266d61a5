from decimal import Decimal
from fractions import Fraction

import pytest

from abelianaut import (
    GroupShape,
    PGroupShape,
    NotFoundWithinBounds,
    UnrealizableReason,
    count_automorphisms,
    groups_of_order,
    groups_up_to,
    partitions,
    ratio,
    ratio_atlas,
    realize,
    screen,
)
from abelianaut import core, enumeration
from abelianaut.cli import main
from helpers import reference_atlas


# ------------------------------------------------------------------ screen

def test_screen_non_squarefree_denominator():
    assert screen(Fraction(1, 4)) is UnrealizableReason.NON_SQUAREFREE_DENOMINATOR
    assert screen(Fraction(4, 9)) is UnrealizableReason.NON_SQUAREFREE_DENOMINATOR
    assert screen(Fraction(15, 4)) is UnrealizableReason.NON_SQUAREFREE_DENOMINATOR


def test_screen_odd_prime():
    assert screen(Fraction(7)) is UnrealizableReason.ODD_PRIME_TARGET
    assert screen(3) is UnrealizableReason.ODD_PRIME_TARGET
    assert screen(97) is UnrealizableReason.ODD_PRIME_TARGET


def test_screen_passes_everything_else():
    assert screen(Fraction(3, 2)) is None
    assert screen(Fraction(2)) is None  # 2 is prime but even
    assert screen(Fraction(9)) is None  # odd but not prime
    assert screen(Fraction(1, 2)) is None
    assert screen(Fraction(1)) is None


def test_screen_rejects_nonpositive():
    with pytest.raises(ValueError):
        screen(Fraction(0))
    with pytest.raises(ValueError):
        screen(Fraction(-3, 2))


def test_every_unrealizable_reason_explains_itself():
    for reason in UnrealizableReason:
        assert isinstance(reason.explanation, str) and reason.explanation
        assert UnrealizableReason(reason.value) is reason


# ----------------------------------------------------------------- realize

def test_realize_screened_targets_without_scanning():
    v = realize(Fraction(3), max_order=1)
    assert v is UnrealizableReason.ODD_PRIME_TARGET
    v = realize(Fraction(1, 4), max_order=1)
    assert v is UnrealizableReason.NON_SQUAREFREE_DENOMINATOR


def test_realize_known_witnesses():
    v = realize(Fraction(1, 2), max_order=100)
    assert v == GroupShape.from_exponents({2: [1]})

    v = realize(Fraction(3, 2), max_order=100)
    assert v == GroupShape.from_exponents({2: [1, 1]})

    v = realize(Fraction(1), max_order=10)
    assert v == GroupShape()

    v = realize(Fraction(2), max_order=54)
    assert isinstance(v, GroupShape)
    assert ratio(v) == Fraction(2)
    assert v.order <= 54


def test_realize_witness_ratio_exact():
    for target in (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(8)):
        v = realize(target, max_order=300)
        assert isinstance(v, GroupShape)
        assert ratio(v) == target


def test_realize_not_found_within_bounds():
    # 9 passes both screens (odd, composite) but has no small witness
    v = realize(Fraction(9), max_order=30)
    assert v == NotFoundWithinBounds(max_order_searched=30)
    # no multiple of the denominator 7 is within the bound: nothing to sweep
    assert realize(Fraction(1, 7), max_order=5) == NotFoundWithinBounds(5)


def test_realize_time_budget_maps_to_not_found():
    v = realize(Fraction(9), max_order=10**4, time_limit=0.0)
    assert isinstance(v, NotFoundWithinBounds)
    assert v.max_order_searched == 0
    # 7/6 can only be realized at orders 6, 12, ...: orders 1..5 are covered
    v = realize(Fraction(7, 6), max_order=10**4, time_limit=0.0)
    assert v == NotFoundWithinBounds(max_order_searched=5)


def test_realize_factors_the_sweep_off_the_sieve(monkeypatch):
    def trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("abelianaut.enumeration.factorize", trial_division)
    v = realize(Fraction(9), max_order=10**4)
    assert v == NotFoundWithinBounds(max_order_searched=10**4)


def test_search_bounds_validation():
    # 7 is a screened target: a bad bound is refused before screening
    with pytest.raises(ValueError):
        realize(7, max_order=0)
    with pytest.raises(ValueError):
        realize(7, max_order=10, time_limit=-1.0)
    with pytest.raises(ValueError):
        realize(7, max_order=10, time_limit=float("nan"))  # a deadline never reached
    # a bool is a number to Python, but True as one second is a caller's mistake
    for bad in (True, False, "5", [1], 1j):
        with pytest.raises(ValueError):
            realize(7, max_order=10, time_limit=bad)
    for good in (0, 0.5, 3, Fraction(1, 3), float("inf")):
        assert realize(7, max_order=10, time_limit=good) is (
            UnrealizableReason.ODD_PRIME_TARGET)


@pytest.mark.parametrize("bad", [0, -3, True, 2.5, 4.0, "4"])
@pytest.mark.parametrize("entry", [
    lambda v: realize(7, max_order=v),
    lambda v: count_automorphisms(PGroupShape(2, (1,)), v),
    lambda v: list(groups_up_to(v)),
    lambda v: list(enumeration._sweep(4, v)),
    lambda v: ratio_atlas(v),
    lambda v: list(groups_of_order(v)),
    lambda v: list(partitions(v)),
    lambda v: list(enumeration.pgroup_shapes_up_to(v)),
], ids=["search-max-order", "oracle-budget", "sweep-max-order", "sweep-step", "atlas",
        "groups-of-order", "partitions", "pgroup-shapes"])
def test_bounds_take_only_integers_from_1(entry, bad):
    # a bool is an int to Python, but True as a bound is a caller's mistake
    with pytest.raises(ValueError):
        entry(bad)


@pytest.mark.parametrize("target", [True, False, 0.5, 0.1, Decimal("0.5"), "3/2"],
                         ids=repr)
@pytest.mark.parametrize("entry", [screen, realize], ids=["screen", "realize"])
def test_targets_must_be_rational(entry, target):
    # a bool, a float, a Decimal or a string is not taken for a ratio, even
    # one that a Fraction would convert exactly
    with pytest.raises(ValueError):
        entry(target)


# ------------------------------------------------------------------- atlas

def test_atlas_max_order_4():
    atlas = ratio_atlas(4)
    assert atlas == {
        Fraction(1): GroupShape(),
        Fraction(1, 2): GroupShape.from_exponents({2: [1]}),
        Fraction(2, 3): GroupShape.from_exponents({3: [1]}),
        Fraction(3, 2): GroupShape.from_exponents({2: [1, 1]}),
    }


def test_atlas_max_order_1():
    assert ratio_atlas(1) == {Fraction(1): GroupShape()}


def test_atlas_denominators_squarefree():
    from abelianaut import is_squarefree

    for r in ratio_atlas(200):
        assert is_squarefree(r.denominator)


def test_realize_atlas_consistency():
    atlas = ratio_atlas(60)
    for target, witness in atlas.items():
        assert realize(target, max_order=60) == witness
    # a target outside the atlas (and past both screens) comes back NotFound
    absent = Fraction(7, 3)
    assert absent not in atlas
    assert realize(absent, max_order=60) == NotFoundWithinBounds(max_order_searched=60)


def test_realize_finds_every_atlas_witness_with_a_denominator():
    atlas = reference_atlas(1000)
    assert sum(t.denominator > 1 for t in atlas) == 1000
    # and the integer targets too, whose sweep steps through every order
    assert sum(t.denominator == 1 for t in atlas) == 157
    for target, witness in atlas.items():
        assert realize(target, max_order=1000) == witness


def test_atlas_equals_the_per_group_reference_in_order():
    assert list(ratio_atlas(3000).items()) == list(
        reference_atlas(3000).items())


def test_block_table_keeps_no_patched_count(monkeypatch, capsys):
    enumeration._blocks.cache_clear()
    monkeypatch.setattr(core, "aut_order_p", lambda shape: 1)
    assert main(["verify", "--max-order", "4"]) == 3  # verify reads the patch
    ratio_atlas(16)
    monkeypatch.undo()
    assert list(ratio_atlas(64).items()) == list(
        reference_atlas(64).items())


def test_shapes_and_witnesses_carry_no_instance_dict():
    # The atlas holds one GroupShape and its blocks per ratio; slots keep
    # its peak memory down.
    block = PGroupShape(3, (1, 2))
    for obj in (block, GroupShape((block,))):
        assert not hasattr(obj, "__dict__"), type(obj)

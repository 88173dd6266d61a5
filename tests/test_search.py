import tracemalloc
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from abelianaut import (
    GroupShape,
    PGroupShape,
    FactorizationOverflow,
    NotFoundWithinBounds,
    UnrealizableReason,
    count_automorphisms,
    factorize,
    is_prime,
    partitions,
    primes_up_to,
    ratio,
    ratio_atlas,
    realize,
    screen,
)
from abelianaut import core, enumeration, search
from abelianaut.arith import factorizations_up_to
from abelianaut.cli import main
from helpers import groups_of_order, reference_atlas, sweep


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
    assert screen(Fraction(10)) is None  # even: no screen reads it
    assert screen(Fraction(100, 3)) is None  # even over a cyclic number
    assert screen(Fraction(1, 2)) is None
    assert screen(Fraction(1)) is None


def test_screen_non_cyclic_denominator():
    # 6 = 2 * 3 with 2 | 3 - 1; 21 = 3 * 7 with 3 | 7 - 1; 55 = 5 * 11 with 5 | 10
    for target in (Fraction(7, 6), Fraction(5, 6), Fraction(2, 21), Fraction(4, 55)):
        assert screen(target) is UnrealizableReason.NON_CYCLIC_DENOMINATOR
    for b in (15, 33, 35, 255):  # gcd(b, phi(b)) = 1: Z_b gives phi(b)/b
        assert screen(Fraction(2, b)) is None


def test_screen_half_integer_target():
    assert screen(Fraction(5, 2)) is UnrealizableReason.HALF_INTEGER_TARGET
    assert screen(Fraction(99, 2)) is UnrealizableReason.HALF_INTEGER_TARGET
    assert screen(Fraction(1, 2)) is None  # Z2
    assert screen(Fraction(3, 2)) is None  # Z2 x Z2


def test_screen_odd_integer_target():
    for target in (9, 15, 27, 999, 3 * 7 * 7):
        assert screen(target) is UnrealizableReason.ODD_INTEGER_TARGET
    assert screen(21) is None  # Z2 x Z2 x Z2
    assert screen(1) is None  # Z1


def test_screen_odd_integer_the_primality_test_cannot_decide():
    # psi_13 is past the bound of is_prime, and no base prime divides it;
    # odd and neither 1 nor 21, it is unrealizable whether or not it is prime.
    with pytest.raises(FactorizationOverflow):
        is_prime(3317044064679887385961981)
    assert screen(3317044064679887385961981) is UnrealizableReason.ODD_INTEGER_TARGET


def test_screen_odd_over_odd_target():
    for target in (Fraction(3, 5), Fraction(1, 7), Fraction(5, 7), Fraction(1, 15),
                   Fraction(7, 3)):
        assert screen(target) is UnrealizableReason.ODD_OVER_ODD_TARGET
    for q in (3, 7, 11, 19, 10007):  # primes = 3 mod 4: Z2 x Z_q and Z2^2 x Z_q
        assert screen(Fraction(q - 1, 2 * q)) is None
        assert screen(Fraction(3 * (q - 1), 2 * q)) is None


# Groups far past any sweep: up to four primes below 200, each with a
# partition of up to seven parts, such as Z2^7 x Z199^2.  Half the blocks
# are Z_p, Z_p^2 or Z_p^3, the blocks of the screens' witnesses.
_GROUPS = st.dictionaries(
    st.sampled_from(primes_up_to(200)),
    st.lists(st.just(1), min_size=1, max_size=3)
    | st.lists(st.integers(1, 4), min_size=1, max_size=7),
    max_size=4,
).map(GroupShape.from_exponents)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(group=_GROUPS)
def test_screen_never_refuses_the_ratio_of_a_group(group):
    assert screen(ratio(group)) is None, group


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
    v = realize(Fraction(9), max_order=1)
    assert v is UnrealizableReason.ODD_INTEGER_TARGET


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
    # 10 passes every screen (it is even) but has no small witness
    v = realize(Fraction(10), max_order=30)
    assert v == NotFoundWithinBounds(max_order_searched=30)
    # no multiple of the denominator 7 is within the bound: nothing to sweep
    assert realize(Fraction(2, 7), max_order=5) == NotFoundWithinBounds(5)


def test_realize_denominator_past_the_factorization_bound_raises():
    # 10**12 + 39 is prime; the squarefree screen must factor it first.
    # ROADMAP item 4 (factoring past trial division) changes this on purpose.
    with pytest.raises(FactorizationOverflow):
        realize(Fraction(1, 10**12 + 39), max_order=10)


def test_realize_time_budget_maps_to_not_found():
    v = realize(Fraction(10), max_order=10**4, time_limit=0.0)
    assert isinstance(v, NotFoundWithinBounds)
    assert v.max_order_searched == 0
    # 16/15 can only be realized at orders 15, 30, ...: orders 1..14 are covered
    v = realize(Fraction(16, 15), max_order=10**4, time_limit=0.0)
    assert v == NotFoundWithinBounds(max_order_searched=14)


def test_realize_factors_the_sweep_off_the_sieve(monkeypatch):
    # the sieve factors only its step, 1 for the target 10; a sieve that
    # fell back to trial division per order would factor every order
    def step_only(n):
        assert n == 1, f"trial division of {n}"
        return factorize(n)

    monkeypatch.setattr("abelianaut.arith.factorize", step_only)
    v = realize(Fraction(10), max_order=10**4)
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


@pytest.mark.parametrize("call", [lambda: realize(1, max_order=0), lambda: ratio_atlas(0)],
                         ids=["realize", "ratio_atlas"])
def test_a_bad_max_order_is_refused_by_name_without_the_sweeps_step(call):
    # the sweep's step is private: the caller passed only max_order
    with pytest.raises(ValueError) as refused:
        call()
    assert "max_order" in str(refused.value) and "step" not in str(refused.value)


@pytest.mark.parametrize("bad", [0, -3, True, 2.5, 4.0, "4"])
@pytest.mark.parametrize("entry", [
    lambda v: realize(7, max_order=v),
    lambda v: count_automorphisms(PGroupShape(2, (1,)), v),
    lambda v: ratio_atlas(v),
    lambda v: list(search._first_witnesses(v)),
    lambda v: list(partitions(v)),
], ids=["search-max-order", "oracle-budget", "atlas", "first-witnesses", "partitions"])
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
    for r in ratio_atlas(200):
        assert all(e == 1 for e in factorize(r.denominator).values())


def test_realize_atlas_consistency():
    atlas = ratio_atlas(60)
    for target, witness in atlas.items():
        assert realize(target, max_order=60) == witness
    # a target outside the atlas (and past every screen) comes back NotFound
    absent = Fraction(10, 3)
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


def _first_witnesses_of(records):
    """The first-witness walk of ``search._first_witnesses`` over ``records``,
    (order, blocks, |Aut|) triples in sweep order."""
    seen = set()
    for order, blocks, aut in records:
        g = gcd(aut, order)
        reduced = (aut // g, order // g)
        if reduced not in seen:
            seen.add(reduced)
            yield (*reduced, order, blocks)


def _full_first_hit(target, records):
    """The first group among the full sweep's ``records`` whose order the
    denominator of ``target`` divides and that realizes ``target``, or None."""
    a, b = target.numerator, target.denominator
    for order, blocks, aut in records:
        if order % b == 0 and aut * b == a * order:
            return GroupShape(blocks)
    return None


def test_the_fold_equals_the_full_sweep():
    # ROADMAP item 11: a group with a block that is not ratio-minimal has a
    # smaller twin of the same ratio, so skipping it moves no first witness.
    full = list(sweep(20000))
    assert len(full) == 44766
    assert sum(len(enumeration._groups(True, factors))
               for _, factors in factorizations_up_to(20000)) == 27734
    assert list(search._first_witnesses(20000)) == list(_first_witnesses_of(full))


def test_realize_equals_the_full_sweeps_first_hit():
    full = list(sweep(2000))
    targets = [Fraction(num, den) for num, den, _, _ in _first_witnesses_of(full)]
    assert len(targets) == 2332
    for target in targets:
        assert realize(target, max_order=2000) == _full_first_hit(target, full), target


@pytest.mark.parametrize("target, below_b", [
    (Fraction(10), 0), (Fraction(20), 0), (Fraction(56), 0),
    (Fraction(16, 15), 14), (Fraction(100, 3), 2)], ids=str)
def test_realize_bounds_are_unmoved_by_the_fold(target, below_b):
    if target.denominator == 1:  # passes every screen, no witness to 10^4
        assert realize(target, max_order=10**4) == NotFoundWithinBounds(10**4)
    # the fold visits every multiple of b, so the first record is at order b
    assert realize(target, max_order=10**4, time_limit=0) == NotFoundWithinBounds(below_b)


def _largest_prime(n):
    return max(factorize(n), default=1)


def test_a_large_prime_of_the_order_divides_every_denominator():
    # ROADMAP item 21: when the largest prime p of n has p^2 > n, every group
    # of order n is Z_p x G' with p prime to |G'| and |Aut(G')|, so p divides
    # the reduced denominator; checked on every group, not only the
    # ratio-minimal ones.
    orders = [n for n in range(2, 3001) if _largest_prime(n) ** 2 > n]
    assert len(orders) == 2177
    for n in orders:
        p = _largest_prime(n)
        for group in groups_of_order(n):
            assert ratio(group).denominator % p == 0, group


def test_the_atlas_at_a_large_prime_order_is_z_p_times_the_order_below():
    # ROADMAP item 21 (b): for p^2 > N, the first witnesses of order n are
    # Z_p times those of order n/p, in order, each with (p-1)/p times its ratio.
    def by_order(atlas):
        rows = defaultdict(list)
        for r, group in atlas.items():
            rows[group.order].append((r, group))
        return rows

    max_order = 600
    rows, below = by_order(ratio_atlas(max_order)), by_order(reference_atlas(max_order))
    large = [n for n in range(2, max_order + 1) if _largest_prime(n) ** 2 > max_order]
    assert sum(len(rows[n]) for n in large) == 331
    for n in large:
        p = _largest_prime(n)
        z_p = PGroupShape(p, (1,))
        assert rows[n] == [(r * Fraction(p - 1, p), GroupShape((*group.factors, z_p)))
                           for r, group in below[n // p]], n


def test_the_atlas_builds_each_large_primes_z_p_once_outside_the_block_table(monkeypatch):
    # ROADMAP item 21 (b): the walk builds the Z_p of a prime p past sqrt(N)
    # itself, at order p, and hands the same block to every multiple of p;
    # the cached block table is asked only for primes p with p^2 <= N.
    max_order = 20000
    asked = []
    blocks_of = enumeration._blocks

    def recorded(p, a, minimal):
        asked.append(p)
        return blocks_of(p, a, minimal)

    enumeration._blocks.cache_clear()
    monkeypatch.setattr(enumeration, "_blocks", recorded)
    z_ps = defaultdict(list)
    for _, _, order, blocks in search._first_witnesses(max_order):
        p = _largest_prime(order)
        if p * p > max_order:
            z_ps[p].append(blocks[-1])
    assert asked and all(p * p <= max_order for p in asked)
    assert len(z_ps) == 2228  # the primes in (sqrt(20000), 20000]
    for p, rows in z_ps.items():
        assert rows[0] == PGroupShape(p, (1,))
        assert all(z_p is rows[0] for z_p in rows), p


def test_the_atlas_drops_each_z_p_at_its_last_multiple():
    # The walk holds Z_p while order + p <= N.  For each N = k * p with
    # p^2 > N (6 = 2 * 3 first, 22 = 2 * 11 among them), order (k - 1) * p
    # has order + p == N: dropping Z_p there, one multiple early, builds a
    # second Z_p at N, which shows here as a second object.
    reference = list(reference_atlas(300).items())
    for max_order in range(1, 301):
        rows = list(ratio_atlas(max_order).items())
        assert rows == [(r, g) for r, g in reference if g.order <= max_order], max_order
        z_ps = {}
        for _, group in rows:
            p = _largest_prime(group.order)
            if p * p > max_order:
                assert group.factors[-1] is z_ps.setdefault(p, group.factors[-1])


def test_realize_builds_no_group_of_an_order_it_skips(monkeypatch):
    # ROADMAP item 21 (a): an order whose largest prime p has p^2 > n holds no
    # group of ratio a/b unless p divides b, so realize never builds one.
    built = []
    groups = enumeration._groups

    def recorded(minimal, factors):
        built.append(prod(p**a for p, a in factors.items()))
        return groups(minimal, factors)

    monkeypatch.setattr(enumeration, "_groups", recorded)
    assert realize(Fraction(10), max_order=10**4) == NotFoundWithinBounds(10**4)
    assert built == [n for n in range(1, 10**4 + 1) if _largest_prime(n) ** 2 <= n]
    built.clear()  # 5471 is prime, and it divides the denominator
    witness = realize(Fraction(5470, 5471), max_order=10**4)
    assert witness == GroupShape.from_exponents({5471: [1]})
    assert built == [5471]


def test_the_first_witness_walk_keeps_its_dedupe_set_small():
    # Hashing every one of the 23,533 ratios at 20,000 put the dedupe set in
    # a 131,072-slot table (2 MiB) and the traced peak at about 3.95 MiB; the
    # orders with a prime past sqrt(20,000) add no key, so 13,484 of the
    # 27,734 groups are hashed.  Their Z_p stays out of the block table,
    # which the walk rebuilds with 100 tables, not 2,328, and the peak is
    # about 1.3 MiB (1.8 MiB while each Z_p was a cached table).
    enumeration._blocks.cache_clear()
    tracemalloc.start()
    try:
        for _ in search._first_witnesses(20000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


def test_block_table_keeps_no_patched_count(monkeypatch, capsys):
    enumeration._blocks.cache_clear()  # both tables: the full and the ratio-minimal
    monkeypatch.setattr(core, "aut_order_p", lambda shape: 1)
    assert main(["verify", "--max-order", "4"]) == 0  # verify reads the table
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

import random
from fractions import Fraction

import pytest

from abelianaut import (
    FactorizationOverflow,
    GroupShape,
    InvalidModulus,
    PGroupClassKind,
    PGroupShape,
    aut_order,
    aut_order_p,
    canonicalize,
    classify,
    closed_form_ratio,
    groups_up_to,
    p_valuation_of_aut,
    ratio,
)
from abelianaut.enumeration import pgroup_shapes_up_to
from helpers import multiplicity


# ---------------------------------------------------------------- shapes

def test_pgroup_shape_sorts_exponents():
    assert PGroupShape(2, (3, 1, 2)).exponents == (1, 2, 3)


def test_pgroup_shape_validation():
    with pytest.raises(ValueError):
        PGroupShape(4, (1,))
    with pytest.raises(ValueError):
        PGroupShape(1, (1,))
    with pytest.raises(ValueError):
        PGroupShape(2, ())
    with pytest.raises(ValueError):
        PGroupShape(2, (0, 1))
    # checked before they are sorted, so no comparison fails first
    with pytest.raises(ValueError, match="exponents must be positive integers"):
        PGroupShape(2, (1, "a"))
    with pytest.raises(ValueError, match="exponents must be positive integers"):
        PGroupShape(2, (1, None))


def test_pgroup_shape_properties():
    s = PGroupShape(3, (1, 2))
    assert s.rank == 2
    assert s.order_exponent == 3
    assert s.order == 27
    assert str(s) == "Z3 x Z9"


def test_group_shape_sorts_and_rejects_duplicates():
    g = GroupShape((PGroupShape(5, (1,)), PGroupShape(2, (1,))))
    assert [f.p for f in g.factors] == [2, 5]
    with pytest.raises(ValueError):
        GroupShape((PGroupShape(2, (1,)), PGroupShape(2, (2,))))
    for factors in [(1,), (PGroupShape(2, (1,)), "Z3")]:
        with pytest.raises(TypeError, match="factors must be PGroupShape instances"):
            GroupShape(factors)


def test_group_shape_trivial():
    g = GroupShape()
    assert g.order == 1
    assert g.factors == ()
    assert str(g) == "Z1"


def test_group_shape_str_and_component():
    g = GroupShape.from_exponents({2: [1], 3: [1, 2]})
    assert str(g) == "Z2 x Z3 x Z9"
    assert g.component(3) == PGroupShape(3, (1, 2))
    assert g.component(7) is None


# ---------------------------------------------------------- canonicalize

def test_canonicalize_crt_split():
    assert canonicalize([6]) == GroupShape.from_exponents({2: [1], 3: [1]})
    assert canonicalize([2, 4, 8]) == GroupShape.from_exponents({2: [1, 2, 3]})
    assert canonicalize([12, 18]) == GroupShape.from_exponents({2: [1, 2], 3: [1, 2]})


def test_canonicalize_drops_ones():
    assert canonicalize([1]) == GroupShape()
    assert canonicalize([1, 1, 5]) == GroupShape.from_exponents({5: [1]})


def test_canonicalize_errors():
    with pytest.raises(InvalidModulus):
        canonicalize([0])
    with pytest.raises(InvalidModulus):
        canonicalize([-4])
    with pytest.raises(FactorizationOverflow):
        canonicalize([10**13])


def test_canonicalize_idempotent_on_enumerated_groups():
    for _, g in groups_up_to(200):
        assert canonicalize([f.p**e for f in g.factors for e in f.exponents]) == g


# ------------------------------------------------------------ aut orders

FROZEN_AUT_ORDERS = {
    (2, (1, 1)): 6,
    (3, (1, 2)): 108,
    (5, (3,)): 100,
    (2, (2, 3)): 128,
    (2, (1, 2)): 8,
    (2, (1, 2, 3)): 2048,
    (2, (1, 1, 2)): 192,
    (2, (1, 1, 1)): 168,   # |GL(3, 2)|
    (2, (1, 1, 1, 1)): 20160,  # |GL(4, 2)|
    (3, (1, 1, 1)): 11232,  # |GL(3, 3)|
    (2, (2, 2, 2)): 86016,
}


def test_aut_order_p_frozen_values():
    for (p, exps), want in FROZEN_AUT_ORDERS.items():
        assert aut_order_p(PGroupShape(p, exps)) == want, (p, exps)


def test_aut_order_multiplicative_over_primes():
    assert aut_order(GroupShape()) == 1
    assert aut_order(GroupShape.from_exponents({2: [1], 3: [1, 2]})) == 108
    assert aut_order(GroupShape.from_exponents({2: [1], 5: [1, 2]})) == 2000


def test_aut_order_multiplicativity_random_disjoint_pairs():
    rng = random.Random(20260809)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(50):
        chosen = rng.sample(primes, 4)
        left = GroupShape.from_exponents(
            {p: [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
             for p in chosen[:2]})
        right = GroupShape.from_exponents(
            {p: [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
             for p in chosen[2:]})
        combined = GroupShape(left.factors + right.factors)
        assert aut_order(combined) == aut_order(left) * aut_order(right)
        assert ratio(combined) == ratio(left) * ratio(right)


def test_ratio_frozen_values():
    assert ratio(GroupShape.from_exponents({2: [1], 3: [1, 2]})) == Fraction(2)
    assert ratio(GroupShape.from_exponents({2: [1]})) == Fraction(1, 2)
    assert ratio(GroupShape.from_exponents({2: [1, 1]})) == Fraction(3, 2)
    assert ratio(GroupShape.from_exponents({2: [1], 5: [1, 2]})) == Fraction(8)
    assert ratio(GroupShape()) == Fraction(1)


# ------------------------------------------------------------- valuation

def test_valuation_examples():
    v = p_valuation_of_aut(PGroupShape(2, (1, 2)))
    assert (v.n, v.d, v.c, v.total) == (2, 1, 1, 3)
    v = p_valuation_of_aut(PGroupShape(2, (1, 2, 3)))
    assert (v.n, v.d, v.c, v.total) == (3, 4, 4, 11)


def test_valuation_cyclic():
    for p in (2, 3, 5):
        for e in range(1, 7):
            v = p_valuation_of_aut(PGroupShape(p, (e,)))
            assert (v.n, v.d, v.c, v.total) == (1, 0, e - 1, e - 1)


def test_valuation_matches_repeated_division():
    for shape in pgroup_shapes_up_to(256):
        v = p_valuation_of_aut(shape)
        assert v.total == multiplicity(aut_order_p(shape), shape.p), shape


# -------------------------------------------------------- classification

def test_classify_patterns():
    assert classify(PGroupShape(7, (1, 1))) is PGroupClassKind.ELEMENTARY_RANK2
    assert classify(PGroupShape(3, (1, 2))) is PGroupClassKind.ZP_TIMES_HIGHER
    assert classify(PGroupShape(2, (2, 2))) is PGroupClassKind.GENERAL
    assert classify(PGroupShape(5, (4,))) is PGroupClassKind.CYCLIC
    assert classify(PGroupShape(2, (1, 1, 1))) is PGroupClassKind.ELEMENTARY_RANK3
    assert classify(PGroupShape(2, (1, 3))) is PGroupClassKind.ZP_TIMES_HIGHER
    assert classify(PGroupShape(2, (1, 1, 2))) is PGroupClassKind.GENERAL


def test_classify_exactly_one_tag_per_shape():
    for shape in pgroup_shapes_up_to(512):
        assert isinstance(classify(shape), PGroupClassKind)


def test_closed_form_ratio_values():
    assert closed_form_ratio(PGroupShape(5, (1,))) == Fraction(4, 5)
    assert closed_form_ratio(PGroupShape(2, (1, 1, 1))) == Fraction(21)
    assert closed_form_ratio(PGroupShape(2, (1, 1))) == Fraction(3, 2)
    assert closed_form_ratio(PGroupShape(3, (1, 3))) == Fraction(4)
    assert closed_form_ratio(PGroupShape(2, (2, 2))) is None


def test_closed_forms_match_general_formula_small():
    for p in (2, 3, 5, 7):
        for exps in [(1,), (4,), (1, 1), (1, 2), (1, 4), (1, 1, 1)]:
            shape = PGroupShape(p, exps)
            expected = closed_form_ratio(shape)
            assert expected is not None
            assert ratio(GroupShape((shape,))) == expected, shape
    for shape in pgroup_shapes_up_to(4096):
        expected = closed_form_ratio(shape)
        if classify(shape) is PGroupClassKind.GENERAL:
            assert expected is None, shape
        else:
            assert expected == Fraction(aut_order_p(shape), shape.order), shape


def test_general_class_divisibility_small():
    for p in (2, 3, 5):
        for exps in [(2, 2), (1, 1, 2), (2, 3), (1, 1, 1, 1), (1, 2, 2)]:
            shape = PGroupShape(p, exps)
            assert classify(shape) is PGroupClassKind.GENERAL
            r = ratio(GroupShape((shape,)))
            assert r.denominator == 1
            assert r.numerator % (p * (p - 1) ** 2) == 0, shape


# ------------------------------------------- witness families (powers of 2)

def test_two_power_family_rank2():
    for i in range(1, 11):
        g = GroupShape.from_exponents({2: [i, i + 1]})
        assert ratio(g) == Fraction(2 ** (2 * (i - 1)))


def test_two_power_family_rank3():
    for i in range(2, 11):
        g = GroupShape.from_exponents({2: [1, i, i + 1]})
        assert ratio(g) == Fraction(2 ** (2 * i + 1))


def test_rank3_family_fails_at_i_1():
    # the i = 1 member collapses to exponents (1, 1, 2); its ratio is 12,
    # not 2**3 -- regression guard against off-by-one in the family
    g = GroupShape.from_exponents({2: [1, 1, 2]})
    assert ratio(g) == Fraction(12)


def test_ratio_denominators_squarefree_small_sweep():
    from abelianaut import is_squarefree

    for _, g in groups_up_to(300):
        assert is_squarefree(ratio(g).denominator)

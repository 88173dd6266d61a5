import copy
import pickle
import random
import sys
from fractions import Fraction
from math import prod

import pytest

from abelianaut import (
    FactorizationOverflow,
    GroupShape,
    InvalidModulus,
    NotFoundWithinBounds,
    PGroupClassKind,
    PGroupShape,
    aut_order,
    aut_order_p,
    canonicalize,
    classify,
    closed_form_ratio,
    p_valuation_of_aut,
    ratio,
)
from abelianaut.core import ValuationParts
from abelianaut.enumeration import partitions
from abelianaut.cli import parse_group
from helpers import (
    groups_of_order,
    hillar_rhea_aut_order,
    hillar_rhea_valuation_parts,
    image_slots,
    invariant_factors,
    multiplicity,
    naive_automorphism_count,
    pgroup_records,
    sweep,
)


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


def test_group_shape_reads_a_generator_of_blocks_once():
    blocks = (PGroupShape(3, (1,)), PGroupShape(2, (1,)))
    g = GroupShape(f for f in blocks)
    assert g == GroupShape(blocks)
    assert g.order == 6


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


@pytest.mark.parametrize("value, names, text", [
    (PGroupShape(3, (2, 1)), ("p", "exponents"),
     "PGroupShape(p=3, exponents=(1, 2))"),
    (GroupShape((PGroupShape(5, (1,)), PGroupShape(2, (1,)))), ("factors",),
     "GroupShape(factors=(PGroupShape(p=2, exponents=(1,)),"
     " PGroupShape(p=5, exponents=(1,))))"),
    # rebuilt from its fields as GroupShape(()): this checks it equals GroupShape()
    (GroupShape(), ("factors",), "GroupShape(factors=())"),
    (ValuationParts(n=2, d=1, c=3), ("n", "d", "c"), "ValuationParts(n=2, d=1, c=3)"),
    (NotFoundWithinBounds(max_order_searched=30), ("max_order_searched",),
     "NotFoundWithinBounds(max_order_searched=30)"),
], ids=["PGroupShape", "GroupShape", "GroupShape-trivial", "ValuationParts",
        "NotFoundWithinBounds"])
def test_value_classes_are_frozen_values(value, names, text):
    # Equal only to the same class with equal fields, hashed as the field
    # tuple (so sets and dicts order them as they would the tuples), never
    # ordered, immutable, and rebuilt whole by pickle and copy.  Printed
    # first, so the text a PGroupShape keeps beside its fields shows in none
    # of these.
    fields = tuple(getattr(value, name) for name in names)
    fresh = type(value)(*fields)
    str(value)
    assert pickle.dumps(value) == pickle.dumps(fresh)
    assert repr(value) == repr(fresh)
    assert value == fresh and hash(value) == hash(fresh)
    assert type(value).__match_args__ == names
    assert repr(value) == text
    for twin in (type(value)(*fields), pickle.loads(pickle.dumps(value)),
                 copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
    assert value != fields and fields != value
    assert hash(value) == hash(fields)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(value, names[0], fields[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(value, names[0])
    with pytest.raises(TypeError):
        value < value


def test_a_block_builds_its_text_on_the_first_str_only():
    # 2**(10**6) has 301,030 digits, past the default limit of 4300 on
    # int-to-str conversion: building the block must neither pay for its
    # text nor trip the limit; printing it trips it as before.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        shape = PGroupShape(2, (10**6,))
        with pytest.raises(ValueError, match="Exceeds the limit .4300 digits."):
            str(shape)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(PGroupShape(3, (2, 1))) == "Z3 x Z9"


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
    for _, blocks, _ in sweep(200):
        g = GroupShape(blocks)
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


def test_valuation_parts_equal_the_position_sums():
    # d and c one by one, not just their total; and the block table's |Aut|
    # of each shape, the count the sweeps print and verify checks
    records = list(pgroup_records(4096))
    assert len(records) == 938
    for shape, aut in records:
        assert p_valuation_of_aut(shape) == hillar_rhea_valuation_parts(shape), shape
        assert aut == hillar_rhea_aut_order(shape), shape


def test_valuation_matches_repeated_division():
    for shape, _ in pgroup_records(256):
        v = p_valuation_of_aut(shape)
        assert v.total == multiplicity(hillar_rhea_aut_order(shape), shape.p), shape


LEVEL_BLOCKS = [PGroupShape(p, exps)
                for p, top in ((2, 18), (3, 12), (5, 12), (7, 12), (11, 12))
                for a in range(1, top + 1) for exps in partitions(a)]


def test_aut_order_p_equals_the_position_formula():
    assert len(LEVEL_BLOCKS) == 2680
    for shape in LEVEL_BLOCKS:
        assert aut_order_p(shape) == hillar_rhea_aut_order(shape), shape


def test_position_formula_facts_behind_the_level_identity():
    for shape in LEVEL_BLOCKS:
        p = shape.p
        count = hillar_rhea_aut_order(shape)
        assert count % (p - 1) == 0, shape
        v = multiplicity(count, p)
        multiplicities = [shape.exponents.count(e) for e in set(shape.exponents)]
        assert count // p**v == prod(p**i - 1 for k in multiplicities
                                     for i in range(1, k + 1)), shape
        if p % 2:
            assert multiplicity(count, 2) >= shape.rank, shape


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
    for shape, _ in pgroup_records(512):
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
    for shape, _ in pgroup_records(4096):
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

def test_rank3_family_fails_at_i_1():
    # the i = 1 member collapses to exponents (1, 1, 2); its ratio is 12,
    # not 2**3 -- regression guard against off-by-one in the family
    g = GroupShape.from_exponents({2: [1, 1, 2]})
    assert ratio(g) == Fraction(12)


# ------------------------------------------ whole groups, by the definition

def test_invariant_factors_examples():
    assert invariant_factors([]) == []
    assert invariant_factors([1, 1]) == []
    assert invariant_factors([12, 18]) == [6, 36]
    assert invariant_factors([2, 4, 3, 9]) == [6, 36]
    assert invariant_factors([4, 2, 8, 2]) == [2, 2, 4, 8]


def test_whole_groups_against_the_definition():
    # every group of order <= 64 whose endomorphisms number at most 2,000:
    # its |Aut| counted on its invariant factors, the CRT split of those
    # factors, and its own name read back
    checked = 0
    for order in range(1, 65):
        for group in groups_of_order(order):
            moduli = invariant_factors(
                [block.p**e for block in group.factors for e in block.exponents])
            if prod(map(len, image_slots(moduli))) > 2000:
                continue
            checked += 1
            assert naive_automorphism_count(moduli) == aut_order(group), group
            assert canonicalize(moduli) == group, group
            assert parse_group(str(group)) == group, group
    assert checked == 97

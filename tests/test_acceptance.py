"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every comparison is exact; there are no tolerances
to tune anywhere in this file.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from abelianaut import (
    GroupShape,
    OracleBudget,
    PGroupClassKind,
    PGroupShape,
    SearchBounds,
    Unrealizable,
    UnrealizableReason,
    Witness,
    aut_order_p,
    classify,
    closed_form_ratio,
    count_automorphisms,
    groups_of_order,
    groups_up_to,
    is_prime,
    p_valuation_of_aut,
    partitions,
    ratio,
    realize,
)
from abelianaut.arith import factorize, is_squarefree, primes_up_to
from abelianaut.enumeration import pgroup_shapes_up_to
from helpers import multiplicity, partition_count


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def ratios_up_to_5000():
    return [(order, g, ratio(g)) for order, g in groups_up_to(5000)]


def test_criterion_1_formula_equals_oracle():
    """Formula vs brute force on every shape with |G| <= 64, |G|^n <= 10^6."""
    budget = OracleBudget(10**6)
    shapes = [s for s in pgroup_shapes_up_to(64) if s.order**s.rank <= 10**6]

    required = {(2, (1, 2)), (2, (2, 3)), (2, (1, 1, 2)), (3, (1, 2))}
    covered = {(s.p, s.exponents) for s in shapes}
    assert required <= covered
    kinds = {classify(s) for s in shapes}
    assert kinds == set(PGroupClassKind)

    mismatches = []
    for s in shapes:
        expected = aut_order_p(s)
        counted = count_automorphisms(s, budget)
        if expected != counted:
            mismatches.append((s, expected, counted))
    ok = not mismatches
    _report(1, "formula equals oracle", ok,
            f"{len(shapes)} shapes checked, {len(mismatches)} mismatches")
    assert ok, mismatches


def test_criterion_2_witness_families():
    """The four witness families hit their stated ratios exactly."""
    ok = True
    ok &= ratio(GroupShape.from_exponents({2: [1], 3: [1, 2]})) == Fraction(2)
    ok &= ratio(GroupShape.from_exponents({2: [1], 5: [1, 2]})) == Fraction(8)
    for i in range(1, 11):
        g = GroupShape.from_exponents({2: [i, i + 1]})
        ok &= ratio(g) == Fraction(2 ** (2 * (i - 1)))
    for i in range(2, 11):
        g = GroupShape.from_exponents({2: [1, i, i + 1]})
        ok &= ratio(g) == Fraction(2 ** (2 * i + 1))
    _report(2, "witness family ratios", ok)
    assert ok


def test_criterion_3_closed_forms_and_divisibility():
    """Closed forms for p <= 97, exponents <= 6; divisibility for General."""
    failures = []
    for p in primes_up_to(97):
        cases: list[tuple[tuple[int, ...], PGroupClassKind]] = []
        for e in range(1, 7):
            cases.append(((e,), PGroupClassKind.CYCLIC))
        cases.append(((1, 1), PGroupClassKind.ELEMENTARY_RANK2))
        for i in range(2, 7):
            cases.append(((1, i), PGroupClassKind.ZP_TIMES_HIGHER))
        cases.append(((1, 1, 1), PGroupClassKind.ELEMENTARY_RANK3))
        for exps, expected_kind in cases:
            shape = PGroupShape(p, exps)
            if classify(shape) is not expected_kind:
                failures.append(("class", shape))
                continue
            want = closed_form_ratio(shape)
            got = Fraction(aut_order_p(shape), shape.order)
            if got != want:
                failures.append(("ratio", shape, got, want))

    rng = random.Random(97)
    primes = primes_up_to(50)
    sampled = 0
    while sampled < 500:
        p = rng.choice(primes)
        a = rng.randint(2, 10)
        exps = rng.choice(list(partitions(a)))
        shape = PGroupShape(p, exps)
        if classify(shape) is not PGroupClassKind.GENERAL:
            continue
        sampled += 1
        r = Fraction(aut_order_p(shape), shape.order)
        if r.denominator != 1 or r.numerator % (p * (p - 1) ** 2) != 0:
            failures.append(("divisibility", shape, r))

    ok = not failures
    _report(3, "closed forms and General divisibility", ok,
            f"{sampled} General shapes sampled")
    assert ok, failures[:10]


def test_criterion_4_denominators_squarefree(ratios_up_to_5000):
    """Reduced ratio denominators are squarefree for all orders <= 5000."""
    violations = [
        (order, g, r) for order, g, r in ratios_up_to_5000
        if not is_squarefree(r.denominator)
    ]
    ok = not violations
    _report(4, "squarefree denominators up to order 5000", ok,
            f"{len(ratios_up_to_5000)} groups swept")
    assert ok, violations[:10]


def test_criterion_5_no_odd_prime_ratios(ratios_up_to_5000):
    """No ratio equals an odd prime for any order <= 5000."""
    violations = [
        (order, g, r) for order, g, r in ratios_up_to_5000
        if r.denominator == 1 and r.numerator % 2 == 1 and r.numerator > 2
        and is_prime(r.numerator)
    ]
    ok = not violations
    _report(5, "no odd-prime ratios up to order 5000", ok,
            f"{len(ratios_up_to_5000)} groups swept")
    assert ok, violations[:10]


def test_criterion_6_valuation_cross_check():
    """Closed-form p-valuation equals repeated division, p in {2,3,5}."""
    checked = 0
    bad = []
    for p in (2, 3, 5):
        for a in range(1, 9):
            for exps in partitions(a):
                shape = PGroupShape(p, exps)
                parts = p_valuation_of_aut(shape)
                if parts.total != multiplicity(aut_order_p(shape), p):
                    bad.append(shape)
                checked += 1
    ok = not bad
    _report(6, "p-valuation equals repeated division", ok,
            f"{checked} shapes checked")
    assert ok, bad[:10]


def test_criterion_7_search_behaviors():
    """Screens fire without scanning; known witnesses come back exactly."""
    ok = True
    v = realize(Fraction(3), SearchBounds(max_order=1))
    ok &= v == Unrealizable(UnrealizableReason.ODD_PRIME_TARGET)
    v = realize(Fraction(1, 4), SearchBounds(max_order=1))
    ok &= v == Unrealizable(UnrealizableReason.NON_SQUAREFREE_DENOMINATOR)
    v = realize(Fraction(1, 2), SearchBounds(max_order=100))
    ok &= v == Witness(GroupShape.from_exponents({2: [1]}), 2)
    v = realize(Fraction(2), SearchBounds(max_order=54))
    ok &= isinstance(v, Witness) and ratio(v.group) == Fraction(2)
    v = realize(Fraction(3, 2), SearchBounds(max_order=100))
    ok &= v == Witness(GroupShape.from_exponents({2: [1, 1]}), 4)
    _report(7, "search screens and witnesses", ok)
    assert ok


def test_criterion_8_enumeration_counts():
    """Streamed group counts match an independent partition recurrence."""
    rng = random.Random(8)
    bad = []
    for _ in range(50):
        n = rng.randint(1, 10**4)
        expected = prod(partition_count(a) for a in factorize(n).values())
        got = sum(1 for _ in groups_of_order(n))
        if got != expected:
            bad.append((n, got, expected))
    ok = not bad
    _report(8, "enumeration counts vs partition recurrence", ok,
            "50 random orders <= 10^4")
    assert ok, bad

import gc
import random
from collections import Counter
from math import gcd
from types import SimpleNamespace

import pytest

from abelianaut import BudgetExceeded, PGroupShape, aut_order_p, count_automorphisms
from abelianaut import oracle
from helpers import (
    bfs_closure,
    bfs_subgroup,
    image_slots,
    naive_automorphism_count,
    package_imports,
)

Z2xZ4 = PGroupShape(2, (1, 2))


def _all_vectors(shape):
    from itertools import product

    return list(product(*(range(shape.p**e) for e in shape.exponents)))


# ------------------------------------------------------- subgroup closure

def _closure(generators, shape):
    """The subgroup ``generators`` span, grown from {0} one generator at a
    time by the closure step that ``count_automorphisms`` runs: the union
    of the cosets it walks."""
    moduli = [shape.p**e for e in shape.exponents]
    subgroup = {(0,) * shape.rank}
    for g in generators:
        subgroup = set().union(*oracle._extend(subgroup, g, moduli))
    return subgroup


def test_subgroup_closure_examples():
    assert len(_closure([], Z2xZ4)) == 1
    assert len(_closure([(1, 0), (0, 1)], Z2xZ4)) == 8
    assert len(_closure([(0, 2)], Z2xZ4)) == 2


def test_subgroup_closure_lagrange():
    rng = random.Random(1729)
    shapes = [Z2xZ4, PGroupShape(2, (1, 1, 2)), PGroupShape(3, (1, 2)),
              PGroupShape(2, (2, 2)), PGroupShape(5, (1, 1))]
    for shape in shapes:
        vectors = _all_vectors(shape)
        for _ in range(25):
            gens = rng.sample(vectors, rng.randint(0, 3))
            size = len(_closure(gens, shape))
            assert shape.order % size == 0, (shape, gens, size)


def test_subgroup_closure_equals_breadth_first_closure():
    rng = random.Random(4104)
    shapes = [Z2xZ4, PGroupShape(2, (1, 1, 1, 1)), PGroupShape(2, (2, 3)),
              PGroupShape(3, (1, 1, 2)), PGroupShape(5, (1, 2)), PGroupShape(7, (2,))]
    for shape in shapes:
        moduli = [shape.p**e for e in shape.exponents]
        vectors = _all_vectors(shape)
        for _ in range(40):
            gens = [rng.choice(vectors) for _ in range(rng.randint(0, 4))]
            assert _closure(gens, shape) == bfs_subgroup(gens, moduli), (shape, gens)


def test_subgroup_closure_single_generator_is_its_order():
    for shape in [Z2xZ4, PGroupShape(3, (1, 2))]:
        moduli = [shape.p**e for e in shape.exponents]
        for v in _all_vectors(shape):
            assert len(_closure([v], shape)) == bfs_closure([v], moduli)


# --------------------------------------------------- automorphism counting

def test_count_automorphisms_frozen_values():
    assert count_automorphisms(PGroupShape(2, (1, 1))) == 6
    assert count_automorphisms(PGroupShape(3, (1,))) == 2
    assert count_automorphisms(PGroupShape(2, (1, 2))) == 8
    assert count_automorphisms(PGroupShape(2, (1, 1, 1))) == 168


def test_count_automorphisms_large_cyclic():
    assert count_automorphisms(PGroupShape(2, (9,))) == 256  # phi(512)
    assert count_automorphisms(PGroupShape(3, (6,))) == 486  # phi(729)


def test_count_respects_budget():
    with pytest.raises(BudgetExceeded):
        count_automorphisms(PGroupShape(2, (1, 1)), 15)
    # 16 tuples is exactly the candidate space of Z2 x Z2: allowed
    assert count_automorphisms(PGroupShape(2, (1, 1)), 16) == 6


def test_budget_validation():
    with pytest.raises(ValueError):
        count_automorphisms(PGroupShape(2, (1, 1)), 0)


def test_count_leaves_no_reference_cycle():
    # a cycle would hold the slot lists until the next collection and
    # raise the peak memory of a verify run
    gc.collect()
    gc.disable()
    try:
        assert count_automorphisms(PGroupShape(2, (1, 2, 3))) == aut_order_p(
            PGroupShape(2, (1, 2, 3)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_bounded_by_candidate_space():
    shape = PGroupShape(2, (1, 1))
    assert count_automorphisms(shape) <= shape.order**shape.rank


@pytest.mark.parametrize("p, exps", [
    (2, (1, 1)), (2, (1, 2)), (3, (1, 1)), (2, (1, 3)), (2, (2, 2)),
    (5, (1, 1)), (3, (1, 2)), (2, (1, 1, 1)), (2, (1, 1, 2)), (2, (3,)),
    (3, (3,)), (2, (1, 2, 2)), (2, (1, 1, 3)), (3, (1, 1, 1)), (3, (2, 2)),
    (5, (1, 2)),
])
def test_count_equals_the_naive_count_over_every_image_tuple(p, exps):
    moduli = [p**e for e in exps]
    assert count_automorphisms(PGroupShape(p, exps)) == naive_automorphism_count(moduli)


def test_last_slot_completion_is_one_probe_at_q_over_p():
    """<H, g> = G exactly when q = |G|/|H| is 1 or (q/p)*g is not in H."""
    rng = random.Random(2718)
    shapes = [Z2xZ4, PGroupShape(2, (1, 1, 1)), PGroupShape(2, (1, 1, 2)),
              PGroupShape(2, (2, 2)), PGroupShape(3, (1, 2)), PGroupShape(5, (1, 1)),
              PGroupShape(3, (2,))]
    seen_q = set()
    for shape in shapes:
        moduli = [shape.p**e for e in shape.exponents]
        vectors = _all_vectors(shape)
        for _ in range(15):
            gens = [rng.choice(vectors) for _ in range(rng.randint(0, shape.rank))]
            h = bfs_subgroup(gens, moduli)
            q = shape.order // len(h)
            seen_q.add(q)
            for g in vectors:
                generates = bfs_closure(gens + [g], moduli) == shape.order
                j = q // shape.p
                probe = q == 1 or tuple(c * j % m for c, m in zip(g, moduli)) not in h
                assert generates == probe, (shape, gens, g)
    assert {1, 2, 3, 4, 5, 8, 9, 25} <= seen_q


def test_prefix_subgroup_lies_in_the_next_slot_and_cosets_close_alike():
    """With images g_j killed by p^e_j for j < i, H = <g_0, ..., g_{i-1}>
    lies in slot i, G[p^e_i], and <H, g + h> = <H, g> for every h in H."""
    rng = random.Random(3142)
    for shape in [PGroupShape(2, (1, 2, 3)), PGroupShape(3, (1, 2, 2))]:
        moduli = [shape.p**e for e in shape.exponents]
        slots = image_slots(moduli)
        for _ in range(8):
            i = rng.randint(1, shape.rank - 1)
            prefix = [rng.choice(slots[j]) for j in range(i)]
            h = bfs_subgroup(prefix, moduli)
            assert h <= set(slots[i]), (shape, prefix)
            for g in rng.sample(slots[i], 4):
                closed = bfs_subgroup(prefix + [g], moduli)
                for x in h:
                    gx = tuple((a + b) % m for a, b, m in zip(g, x, moduli))
                    assert bfs_subgroup(prefix + [gx], moduli) == closed, (shape, prefix, g, x)


def test_unit_multiples_close_alike_and_phi_k_cosets_generate():
    """For H a prefix subgroup and g in the next slot, with k the least k >= 1
    such that k*g is in H: <H, j*g> = <H, g> for every j prime to p, and
    exactly phi(k) of the cosets H + j*g, 0 <= j < k, generate <H, g>."""
    rng = random.Random(1618)
    seen_k = set()
    for shape in [PGroupShape(2, (1, 2, 3)), PGroupShape(3, (1, 2, 2)),
                  PGroupShape(5, (2, 2)), PGroupShape(3, (3,))]:
        p, moduli = shape.p, [shape.p**e for e in shape.exponents]
        slots = image_slots(moduli)
        for _ in range(10):
            i = rng.randrange(shape.rank)
            prefix = [rng.choice(slots[j]) for j in range(i)]
            h = bfs_subgroup(prefix, moduli)
            g = rng.choice(slots[i])

            def times(j):
                return tuple(c * j % m for c, m in zip(g, moduli))

            closed = bfs_subgroup(prefix + [g], moduli)
            k = next(k for k in range(1, shape.order + 1) if times(k) in h)
            seen_k.add((p, k))
            for j in range(1, 2 * k + 2):
                if j % p:
                    assert bfs_subgroup(prefix + [times(j)], moduli) == closed, (
                        shape, prefix, g, j)
            generating = sum(bfs_subgroup(prefix + [times(j)], moduli) == closed
                             for j in range(k))
            assert generating == sum(gcd(j, k) == 1 for j in range(k)), (shape, prefix, g)
    assert {(2, 4), (3, 9), (3, 27), (5, 25)} <= seen_k


@pytest.mark.parametrize("p, exps, closures", [
    (2, (1, 1, 1, 1), 428), (2, (1, 2, 3), 104), (3, (1, 1, 2), 93),
    (3, (1, 2, 2), 309),
], ids=["Z2^4", "Z2xZ4xZ8", "Z3xZ3xZ9", "Z3xZ9xZ9"])
def test_count_closes_each_subgroup_and_coset_once_per_slot(monkeypatch, p, exps, closures):
    # each level holds a prefix subgroup H once and closes one candidate per
    # class of cosets H + j*g with p not dividing j, so a pair (H, g + H) can
    # recur only across the n - 1 slots; the totals pin how many closures the
    # whole count makes
    closed = []
    extend = oracle._extend

    def recording(subgroup, g, moduli):
        coset = frozenset(oracle._add(g, h, moduli) for h in subgroup)
        closed.append((frozenset(subgroup), coset))
        return extend(subgroup, g, moduli)

    monkeypatch.setattr(oracle, "_extend", recording)
    shape = PGroupShape(p, exps)
    assert count_automorphisms(shape, shape.order**shape.rank) == aut_order_p(shape)
    assert max(Counter(closed).values()) <= shape.rank - 1
    assert len(closed) == closures


# ------------------------------------------------------------ independence

def test_oracle_imports_no_formula():
    # The oracle's agreement with aut_order_p is evidence only while it
    # shares no logic with the formulas: from the package it takes the
    # integer rule, nothing else, and of a block it reads p and exponents.
    assert package_imports(oracle) == {(".arith", "is_positive_int")}


def test_oracle_reads_only_the_prime_and_the_exponents():
    # a bare record with the two fields counts and refuses as the shape does
    for p, exps in [(2, (1, 2, 3)), (3, (1, 1)), (5, (2,))]:
        block = SimpleNamespace(p=p, exponents=exps)
        assert count_automorphisms(block) == aut_order_p(PGroupShape(p, exps))
    with pytest.raises(BudgetExceeded, match=r"\|G\|\^rank = 4\^2 exceeds the budget of 15 "):
        count_automorphisms(SimpleNamespace(p=2, exponents=(1, 1)), 15)

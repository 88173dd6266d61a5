import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from abelianaut import (
    BudgetExceeded,
    PGroupShape,
    aut_order_p,
    count_automorphisms,
    subgroup_closure,
)
from abelianaut import oracle
from helpers import bfs_closure, bfs_subgroup, naive_automorphism_count

Z2xZ4 = PGroupShape(2, (1, 2))


def _all_vectors(shape):
    from itertools import product

    return list(product(*(range(shape.p**e) for e in shape.exponents)))


# ------------------------------------------------------- subgroup closure

@pytest.mark.parametrize("vector", [(0.5, 0), (1.0, 0), (0, Fraction(1)),
                                    (True, 0), (0, False), ("1", 0)])
def test_non_integer_coordinates_are_rejected(vector):
    with pytest.raises(ValueError):
        subgroup_closure([(0, 1), vector], Z2xZ4)


def test_subgroup_closure_rejects_bad_vectors():
    for vector in [(0,), (2, 0), (0, -1)]:  # wrong length, out of range
        with pytest.raises(ValueError):
            subgroup_closure([vector], Z2xZ4)


def test_subgroup_closure_examples():
    assert subgroup_closure([], Z2xZ4) == 1
    assert subgroup_closure([(1, 0), (0, 1)], Z2xZ4) == 8
    assert subgroup_closure([(0, 2)], Z2xZ4) == 2


def test_subgroup_closure_lagrange():
    rng = random.Random(1729)
    shapes = [Z2xZ4, PGroupShape(2, (1, 1, 2)), PGroupShape(3, (1, 2)),
              PGroupShape(2, (2, 2)), PGroupShape(5, (1, 1))]
    for shape in shapes:
        vectors = _all_vectors(shape)
        for _ in range(25):
            gens = rng.sample(vectors, rng.randint(0, 3))
            size = subgroup_closure(gens, shape)
            assert shape.order % size == 0, (shape, gens, size)


def test_subgroup_closure_equals_breadth_first_closure():
    rng = random.Random(4104)
    shapes = [Z2xZ4, PGroupShape(2, (1, 1, 1, 1)), PGroupShape(2, (2, 3)),
              PGroupShape(3, (1, 1, 2)), PGroupShape(5, (1, 2)), PGroupShape(7, (2,))]
    for shape in shapes:
        vectors = _all_vectors(shape)
        for _ in range(40):
            gens = [rng.choice(vectors) for _ in range(rng.randint(0, 4))]
            assert subgroup_closure(gens, shape) == bfs_closure(gens, shape), (shape, gens)


def test_subgroup_closure_single_generator_is_its_order():
    for shape in [Z2xZ4, PGroupShape(3, (1, 2))]:
        for v in _all_vectors(shape):
            assert subgroup_closure([v], shape) == bfs_closure([v], shape)


# --------------------------------------------------- automorphism counting

def test_count_automorphisms_frozen_values():
    assert count_automorphisms(PGroupShape(2, (1, 1))) == 6
    assert count_automorphisms(PGroupShape(3, (1,))) == 2
    assert count_automorphisms(PGroupShape(2, (1, 2))) == 8
    assert count_automorphisms(PGroupShape(2, (1, 1, 1))) == 168


def test_count_automorphisms_equals_formula_spot_checks():
    for p, exps in [(2, (1, 1)), (2, (1, 2)), (2, (2, 2)), (3, (1, 1)),
                    (3, (2,)), (5, (1, 1)), (2, (1, 1, 2)), (7, (1,))]:
        shape = PGroupShape(p, exps)
        assert count_automorphisms(shape) == aut_order_p(shape), shape


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


def test_count_bounded_by_candidate_space():
    shape = PGroupShape(2, (1, 1))
    assert count_automorphisms(shape) <= shape.order**shape.rank


@pytest.mark.parametrize("p, exps", [
    (2, (1, 1)), (2, (1, 2)), (3, (1, 1)), (2, (1, 3)), (2, (2, 2)),
    (5, (1, 1)), (3, (1, 2)), (2, (1, 1, 1)), (2, (1, 1, 2)), (2, (3,)),
    (3, (3,)),
])
def test_count_equals_the_naive_count_over_every_image_tuple(p, exps):
    shape = PGroupShape(p, exps)
    assert count_automorphisms(shape) == naive_automorphism_count(shape)


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
            h = bfs_subgroup(gens, shape)
            q = shape.order // len(h)
            seen_q.add(q)
            for g in vectors:
                generates = bfs_closure(gens + [g], shape) == shape.order
                j = q // shape.p
                probe = q == 1 or tuple(c * j % m for c, m in zip(g, moduli)) not in h
                assert generates == probe, (shape, gens, g)
    assert {1, 2, 3, 4, 5, 8, 9, 25} <= seen_q


# ------------------------------------------------------------ independence

def test_oracle_imports_no_formula():
    # The oracle's agreement with aut_order_p is evidence only while it
    # shares no logic with the formulas: from the package it takes the
    # integer rule and the shape record, nothing else.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.update((alias.name, None) for alias in node.names)
    package = {(module, name) for module, name in imports
               if module.startswith((".", "abelianaut"))}
    assert package == {(".arith", "is_positive_int"), (".core", "PGroupShape")}

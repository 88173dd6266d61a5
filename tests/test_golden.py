"""Golden output: the CLI's bytes as frozen from the code that rebuilt
every primary block per order, plus the equivalences that the block
table and the sieve rely on.

``golden/enumerate_300.csv`` is the full output of
``enumerate --max-order 300 --format csv``; ``golden/atlas_5000.json``
holds the sha256 and data-row count of ``atlas --max-order 5000
--format csv``.  Both pin row order, so witness tie-breaking and the
atlas key order are covered too.
"""

import hashlib
import json
from itertools import chain
from pathlib import Path

import pytest

from abelianaut import PGroupShape, factorize, groups_of_order, groups_up_to
from abelianaut.arith import factorizations_up_to
from abelianaut.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_enumerate_csv_matches_golden(capsys):
    assert main(["enumerate", "--max-order", "300", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "enumerate_300.csv").read_text()


def test_atlas_csv_matches_golden_digest(capsys):
    golden = json.loads((GOLDEN / "atlas_5000.json").read_text())
    assert main(golden["argv"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) - 1 == golden["rows"]  # minus the header
    assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]


def test_sieve_factorizations_equal_trial_division():
    got = list(factorizations_up_to(5000))
    assert len(got) == 5000
    for k, factors in enumerate(got, start=1):
        want = factorize(k)
        assert factors == want, k
        assert list(factors) == list(want), k  # primes ascending in both


def test_sieve_factorizations_of_nothing():
    assert list(factorizations_up_to(0)) == []
    assert list(factorizations_up_to(1)) == [{}]


def test_sieve_is_built_as_the_caller_goes():
    # A sieve of 10**12 entries up front would not fit in memory.
    first = factorizations_up_to(10**12)
    assert [next(first) for _ in range(4)] == [{}, {2: 1}, {3: 1}, {2: 2}]


def test_groups_up_to_is_groups_of_order_concatenated():
    want = chain.from_iterable(
        ((n, g) for g in groups_of_order(n)) for n in range(1, 2001))
    assert list(groups_up_to(2000)) == list(want)


def test_pgroup_shape_still_checks_its_prime():
    with pytest.raises(ValueError):
        PGroupShape(4, (1,))

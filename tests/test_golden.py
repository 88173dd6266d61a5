"""Golden output: the CLI's bytes as frozen from the code that rebuilt
every primary block per order, plus the equivalences that the block
table and the sieve rely on.

``golden/enumerate_300.csv`` is the full output of
``enumerate --max-order 300 --format csv``; ``golden/atlas_5000.json``
holds the sha256 and data-row count of ``atlas --max-order 5000
--format csv``.  Both pin row order, so witness tie-breaking and the
atlas key order are covered too.  ``golden/cli_digest.json`` holds, per
command of ``DIGEST_ARGV``, the sha256 of ``repr((argv, stdout, stderr,
exit code))`` from ``main``.
"""

import hashlib
import json
from itertools import chain
from pathlib import Path

import pytest

from abelianaut import GroupShape, PGroupShape, aut_order, factorize
from abelianaut.arith import factorizations_up_to
from abelianaut.cli import main
from helpers import groups_of_order, sweep

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
    assert [k for k, _ in got] == list(range(1, 5001))
    for k, factors in got:
        want = factorize(k)
        assert factors == want, k
        assert list(factors) == list(want), k  # primes ascending in both


def test_sieve_factorizations_of_nothing():
    assert list(factorizations_up_to(0)) == []
    assert list(factorizations_up_to(1)) == [(1, {})]


def test_sieve_is_built_as_the_caller_goes():
    # A sieve of 10**12 entries up front would not fit in memory.
    first = factorizations_up_to(10**12)
    assert [next(first) for _ in range(4)] == [(1, {}), (2, {2: 1}), (3, {3: 1}), (4, {2: 2})]


def test_sweep_is_the_reference_enumeration_concatenated():
    # the reference crosses partition streams per prime, with no block table:
    # this pins which groups the sweep yields, and in what order
    want = chain.from_iterable(
        ((n, g) for g in groups_of_order(n)) for n in range(1, 2001))
    got = [(order, GroupShape(blocks), aut)
           for order, blocks, aut in sweep(2000)]
    assert [(order, g) for order, g, _ in got] == list(want)
    # |Aut| folded from the block table, against the closed form per group
    assert all(aut == aut_order(g) for _, g, aut in got)


def test_pgroup_shape_still_checks_its_prime():
    with pytest.raises(ValueError):
        PGroupShape(4, (1,))


# Every command below in each format.  Left out: --help and argparse usage
# errors, whose layout differs between Python releases.
_SEARCH_TARGETS = [
    # ratios the atlas reaches
    "1", "1/2", "2/3", "3/2", "4/5", "1/3", "6/7", "21", "16/3", "2/5", "12",
    "1260", "96/5", "416", "48", "672", "312480", "24/35", "8", "448/493",
    "108/247", "37800/31", "498/499", "17856", "2/4", "6/3", " 3 / 2 ",
    # screened: a squared prime in the denominator, or an odd prime
    "1/4", "3/8", "9/4", "25/18", "5/9", "3", "5", "7", "11", "101", "1000000007",
    # screened (9, 7/6, 15, 27, 3/5, 1/7, 5/6, 999, 318665857834031151167461),
    # or no witness of order <= 500 (10, 22, 26, 176, 100/3)
    "9", "7/6", "10", "22", "26", "176", "15", "27", "3/5", "1/7", "5/6", "100/3",
    "999", "318665857834031151167461",
    # past a bound (exit 2) and bad input (exit 1)
    "3317044064679887385961981", "1/1000000000039", "0", "3/0", "abc",
]
_GROUPS = ["Z1", "Z2xZ3xZ9", "Z8xZ4", "Z0", "Z2*Z2*Z2*Z2"]
DIGEST_ARGV = [
    [*command, "--format", fmt]
    for command in [
        ["verify", "--max-order", "64"],
        ["verify", "--max-order", "300", "--budget", "300"],
        ["verify", "--budget", "1"],
        ["verify", "--max-order", "1"],
        ["atlas", "--max-order", "1000"],
        *(["search", target, "--max-order", "500"] for target in _SEARCH_TARGETS),
        *([command, group] for command in ("aut", "ratio", "classify")
          for group in _GROUPS),
        *(["valuation", group, "-p", "2"] for group in _GROUPS),
    ]
    for fmt in ("text", "json", "csv")
]


def cli_digests(capsys) -> dict[str, str]:
    """sha256 of repr((argv, stdout, stderr, exit code)) per DIGEST_ARGV entry."""
    digests = {}
    for argv in DIGEST_ARGV:
        code = main(argv)
        out, err = capsys.readouterr()
        digests[" ".join(argv)] = hashlib.sha256(
            repr((argv, out, err, code)).encode()).hexdigest()
    return digests


def test_cli_output_matches_golden_digest(capsys):
    golden = json.loads((GOLDEN / "cli_digest.json").read_text())
    got = cli_digests(capsys)
    assert list(got) == list(golden)
    assert [cmd for cmd in got if got[cmd] != golden[cmd]] == []

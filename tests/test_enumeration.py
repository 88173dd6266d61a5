import json
from fractions import Fraction
from functools import cache
from itertools import accumulate

import pytest

from abelianaut import GroupShape, PGroupShape, partitions
from abelianaut import counting, enumeration, oracle
from abelianaut.arith import factorizations_up_to, primes_up_to
from abelianaut.cli import main
from helpers import hillar_rhea_aut_order, package_imports, partition_count, sweep


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

def test_enumeration_imports_no_trial_division_or_group():
    # The block tables and the groups of one factored order hand out plain
    # records: from the package they take the integer rule, the block and
    # its |Aut|, nothing that lists primes, factors an order or builds a
    # GroupShape, and all four walks read the sieve themselves.
    assert package_imports(enumeration) == {
        (".arith", "is_positive_int"), (".core", "PGroupShape"), (".core", "aut_order_p")}


# ----------------------------------------------------------- the sweep to N

def _up_to(max_order):
    """(order, group) per record of the sweep that enumerate prints."""
    return [(order, GroupShape(blocks)) for order, blocks, _ in sweep(max_order)]


def test_sweep_small_exact():
    got = _up_to(4)
    want = [
        (1, GroupShape()),
        (2, GroupShape.from_exponents({2: [1]})),
        (3, GroupShape.from_exponents({3: [1]})),
        (4, GroupShape.from_exponents({2: [2]})),
        (4, GroupShape.from_exponents({2: [1, 1]})),
    ]
    assert got == want


@pytest.mark.parametrize("max_order, step", sorted(
    {(m, step) for m in (1, 300) for step in (1, 2, 6, 7, 30, m, m + 1)}))
def test_sweep_step_keeps_the_multiples_of_step(max_order, step):
    # the stepped walk realize reads (there on the ratio-minimal table), the
    # sieve stepped by step and each order's groups: the step-1 records of
    # the multiples of step
    want = [record for record in sweep(max_order) if record[0] % step == 0]
    got = [(order, *group) for order, factors in factorizations_up_to(max_order, step)
           for group in enumeration._groups(False, factors)]
    assert got == want


def test_stream_deterministic():
    first = _up_to(120)
    second = _up_to(120)
    assert first == second


def test_the_minimal_sweep_keeps_the_ratio_minimal_records_in_order():
    def minimal(blocks):
        return all(b.exponents[-1] <= (b.exponents[-2:-1] or (0,))[0] + 1 for b in blocks)

    for step in (1, 6):
        for order, factors in factorizations_up_to(600, step):
            want = [r for r in enumeration._groups(False, factors) if minimal(r[0])]
            assert enumeration._groups(True, factors) == want, order


def test_the_ratio_minimal_table_builds_only_the_blocks_it_keeps(monkeypatch):
    built = []

    def counted(p, exponents):
        built.append(exponents)
        return PGroupShape(p, exponents)

    enumeration._blocks.cache_clear()
    monkeypatch.setattr(enumeration, "PGroupShape", counted)
    try:
        table = enumeration._blocks(3, 9, True)
    finally:
        enumeration._blocks.cache_clear()  # no later test reads these blocks
    assert len(built) == len(table) == 15 < partition_count(9)
    assert built == [block.exponents for block, _ in table]


def test_a_block_that_is_not_ratio_minimal_has_a_twin_of_the_same_ratio():
    # The twin lemma of the search module, against the position formula:
    # lowering a unique top exponent two or more above the next keeps the
    # ratio, and the minimal table is what no twin undercuts.
    for p in (2, 3, 5):
        for a in range(1, 11):
            kept = {block.exponents for block, _ in enumeration._blocks(p, a, True)}
            for exps in partitions(a):
                below_top = (exps[-2:-1] or (0,))[0]  # 0 below a cyclic block
                assert (exps in kept) == (exps[-1] <= below_top + 1), (p, exps)
                if exps in kept:
                    continue
                twin = PGroupShape(p, (*exps[:-1], exps[-1] - 1))
                block = PGroupShape(p, exps)
                assert Fraction(hillar_rhea_aut_order(block), block.order) == Fraction(
                    hillar_rhea_aut_order(twin), twin.order), (p, exps)


# ------------------------------------------------------- p-group shapes

def test_verify_checked_plus_skipped_is_the_number_of_pgroup_shapes(capsys):
    # verify checks or skips each p-group shape of order <= n exactly once,
    # so checked + skipped must equal the number of partitions of a, summed
    # over the prime powers p^a <= n; a budget of one tuple skips every
    # shape (exit 2), and a budget of 300 splits the 157 shapes of order
    # <= 300 into 84 checked and 73 skipped
    for n, budget, code, checked in [(64, 1, 2, 0), (300, 1, 2, 0), (300, 300, 0, 84)]:
        expected = sum(partition_count(a) for p in primes_up_to(n)
                       for a in range(1, n.bit_length()) if p**a <= n)
        assert main(["verify", "--max-order", str(n), "--budget", str(budget),
                     "--format", "json"]) == code
        row = json.loads(capsys.readouterr().out)
        assert row["checked"] == checked, (n, budget)
        assert row["checked"] + row["skipped"] == expected, (n, budget)


def _pgroup_shape_totals(n):
    """totals[m], the number of p-group shapes of order <= m for 0 <= m <= n,
    read off the sieve: p(a) shapes at each prime power p^a."""
    per_order = [0] * (n + 1)
    for order, factors in factorizations_up_to(n):
        if len(factors) == 1:
            per_order[order] = partition_count(*factors.values())
    return list(accumulate(per_order))


# Tops that are exact prime powers (2^8, 3^5, 17^2, 11^3) put the integer
# roots of the count at their boundaries, as each N = 2^a does.
_TOPS = (1, 243, 256, 289, 300, 1331)


def _steps(n):
    """Every prime power q <= n and q - 1, and n: the number of shapes of
    order <= N changes only at a prime power, so these cover every N <= n."""
    powers = {p**a for p in primes_up_to(n) for a in range(1, n.bit_length()) if p**a <= n}
    return sorted({n, *powers, *(q - 1 for q in powers)})


def test_the_shapes_past_the_walk_are_counted_exactly():
    # verify walks the sieve to top = min(N, budget) and counts the shapes of
    # order in (top, N] from prime counts at the a-th roots of top and N
    totals = _pgroup_shape_totals(2000)
    for top in _TOPS:
        for n in _steps(2000):
            if n >= top:
                got = counting.pgroup_shapes_between(top, n)
                assert got == totals[n] - totals[top], (top, n)


def test_verify_checked_plus_skipped_at_every_split(capsys, monkeypatch):
    # End to end, with the walk and the count split at each top of _TOPS and
    # with no count at a budget of 10^6: checked + skipped is the sieve's
    # count for each N that is 2^a, next to a top, or 2000.  Each shape is
    # counted by the oracle once.
    monkeypatch.setattr(oracle, "count_automorphisms", cache(oracle.count_automorphisms))
    totals = _pgroup_shape_totals(2000)
    orders = sorted({2000, *(1 << a for a in range(11)),
                     *(t + d for t in _TOPS for d in (-1, 0, 1) if t + d)})
    for budget in (*_TOPS, 10**6):
        for n in orders:
            code = main(["verify", "--max-order", str(n), "--budget", str(budget),
                         "--format", "json"])
            row = json.loads(capsys.readouterr().out)
            assert code == (0 if row["checked"] else 2), (n, budget)
            assert row["checked"] + row["skipped"] == totals[n], (n, budget)


def test_verify_runs_no_prime_count_when_it_walks_to_the_end(capsys, monkeypatch):
    # the benchmark's two verify calls walk to their max order: no count runs
    def refuse(n):
        raise AssertionError("prime_count ran")
    monkeypatch.setattr(counting, "prime_count", refuse)
    for argv, line in [(["--max-order", "64"], "checked=49 skipped=6 mismatches=0\n"),
                       (["--max-order", "300", "--budget", "300"],
                        "checked=84 skipped=73 mismatches=0\n")]:
        assert main(["verify", *argv]) == 0
        assert capsys.readouterr().out == line

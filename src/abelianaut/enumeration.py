"""Streaming enumeration of all finite abelian groups, order by order.

Groups of order N correspond one-to-one to choices of an integer
partition per prime power in N's factorization, so the stream is
duplicate-free by construction.  The order of emission is deterministic
and documented, because downstream searches return the first hit and
therefore rely on it for witness minimality.

This module holds the partitions, the block tables and the groups of
one factored order.  It walks no orders: enumerate, verify, the atlas
and realize each read the sieve and call :func:`_groups` per order,
verify only on the orders of one prime.  Blocks come from two cached
(p, a) tables of (block, |Aut|) records, each block built and counted
once per table: the full table, which enumerate and verify read, and
the table of ratio-minimal blocks, which realize reads, and the atlas
for primes p with p^2 <= N (it builds the Z_p of a larger prime itself).
A group with any other block has a smaller twin of the same ratio (the
twin lemma in :mod:`abelianaut.search`).
:func:`_groups` folds the counts into each group's |Aut| and builds no
GroupShape.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

from .arith import is_positive_int
from .core import PGroupShape, aut_order_p


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Every partition of ``total``, each exactly once, parts ascending.

    Emitted by largest part m, from ``total`` down to 1; within one m,
    the partitions of ``total - m`` into parts <= m follow in the same
    order: 4 gives (4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1).
    """
    if not is_positive_int(total):
        raise ValueError(f"need an integer >= 1, got {total!r}")
    yield from _ascending(total, total)


def _ascending(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for top in range(min(remaining, cap), 0, -1):
        for rest in _ascending(remaining - top, top):
            yield (*rest, top)


def _ratio_minimal(exponents: tuple[int, ...]) -> bool:
    """Z_p, or an ascending partition whose top exponent is repeated or one
    more than the next (the twin lemma in :mod:`abelianaut.search`)."""
    if len(exponents) == 1:
        return exponents == (1,)
    return exponents[-1] - exponents[-2] <= 1


@cache
def _blocks(p: int, a: int, minimal: bool) -> tuple[tuple[PGroupShape, int], ...]:
    """(block, |Aut(block)|) for each p-group of order p^a in :func:`partitions`
    order, or only for each ratio-minimal one when ``minimal``; a process
    that reads both tables counts a ratio-minimal block once in each, with
    the same ``aut_order_p``.  The two tables share this cache, so clearing
    it clears both, and the minimal one filters the partitions, so it builds
    no block that it drops.  Counted by the ``aut_order_p`` bound at import,
    so rebinding ``core.aut_order_p`` cannot leave a wrong count in the cache."""
    exponents = partitions(a)
    if minimal:
        exponents = filter(_ratio_minimal, exponents)
    shapes = [PGroupShape(p, exps) for exps in exponents]
    return tuple(zip(shapes, map(aut_order_p, shapes)))


def _groups(minimal: bool,
            factors: dict[int, int]) -> list[tuple[tuple[PGroupShape, ...], int]]:
    """(blocks, |Aut|) per group of the order ``factors`` spells, its blocks
    read from the ``minimal`` or the full table, primes ascending, the
    partition of the largest prime varying fastest; |Aut| folded prime by
    prime."""
    groups = [((), 1)]
    for p, a in factors.items():
        table = _blocks(p, a, minimal)
        groups = [(blocks + (shape,), aut * block_aut)
                  for blocks, aut in groups for shape, block_aut in table]
    return groups

"""Streaming enumeration of all finite abelian groups, order by order.

Groups of order N correspond one-to-one to choices of an integer
partition per prime power in N's factorization, so the stream is
duplicate-free by construction.  The order of emission is deterministic
and documented, because downstream searches return the first hit and
therefore rely on it for witness minimality.

Each primary block is built and counted once, in a cached (p, a) table;
a sweep folds the counts into each group's |Aut| prime by prime and
builds a GroupShape only for the groups it hands out.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterator

from .arith import factorize, factorizations_up_to, is_positive_int, primes_up_to
from .core import GroupShape, PGroupShape, aut_order_p

_Record = tuple[int, tuple[PGroupShape, ...], int]  # (order, blocks, |Aut|)


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


@cache
def _blocks(p: int, a: int) -> tuple[tuple[PGroupShape, int], ...]:
    """(block, |Aut(block)|) for each p-group of order p^a, in :func:`partitions`
    order.  Counted by the ``aut_order_p`` bound at import, so rebinding
    ``core.aut_order_p`` cannot leave a wrong count in the cache."""
    shapes = [PGroupShape(p, exps) for exps in partitions(a)]
    return tuple(zip(shapes, map(aut_order_p, shapes)))


def pgroup_shapes_up_to(max_order: int) -> Iterator[PGroupShape]:
    """Every abelian p-group of order <= ``max_order``, each exactly once.

    Primes ascending, then the exponent a of |G| = p^a ascending, then
    :func:`partitions` order within one p^a.  ``max_order`` must be an int
    >= 1 (a bool is not taken for one), else ValueError.
    """
    if not is_positive_int(max_order):
        raise ValueError(f"need an integer >= 1, got {max_order!r}")
    for p in primes_up_to(max_order):
        a = 1
        while p**a <= max_order:
            for shape, _ in _blocks(p, a):
                yield shape
            a += 1


def _groups(order: int, factors: dict[int, int]) -> list[_Record]:
    """(order, blocks, |Aut|) per group of the order ``factors`` spells, in
    :func:`groups_of_order` order, |Aut| folded prime by prime."""
    groups = [(order, (), 1)]
    for p, a in factors.items():
        table = _blocks(p, a)
        groups = [(order, blocks + (shape,), aut * block_aut)
                  for _, blocks, aut in groups for shape, block_aut in table]
    return groups


def groups_of_order(order: int) -> Iterator[GroupShape]:
    """Every abelian group of order exactly ``order``, one per iso class.

    Deterministic: primes ascending, one partition stream per prime, the
    partition of the largest prime varying fastest (folded prime by prime
    in ``_groups``).
    Order 1 yields exactly the trivial group.  An ``order`` that is not an
    int >= 1 raises :class:`~abelianaut.arith.InvalidModulus` (a ValueError)
    from ``factorize``.
    """
    for _, blocks, _ in _groups(order, factorize(order)):
        yield GroupShape(blocks)


def _sweep(max_order: int, step: int = 1) -> Iterator[_Record]:
    """:func:`_groups` of order = step, 2step, ... <= max_order in one flat
    stream, factored off one sieve: the records the atlas, enumerate and
    search read.  The bounds are checked on the call, not on the first read."""
    if not (is_positive_int(max_order) and is_positive_int(step)):
        raise ValueError(f"need integers max_order, step >= 1, "
                         f"got max_order={max_order!r}, step={step!r}")
    orders = range(step, max_order + 1, step)
    return chain.from_iterable(map(_groups, orders, factorizations_up_to(max_order, step)))


def groups_up_to(max_order: int) -> Iterator[tuple[int, GroupShape]]:
    """(order, group) for each abelian group of order <= max_order.

    Same stream as :func:`groups_of_order` over orders 1, 2, ..., built
    from the (order, blocks, |Aut|) records the atlas and the search read.
    """
    for order, blocks, _ in _sweep(max_order):
        yield order, GroupShape(blocks)

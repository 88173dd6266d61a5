"""Streaming enumeration of all finite abelian groups, order by order.

Groups of order N correspond one-to-one to choices of an integer
partition per prime power in N's factorization, so the stream is
duplicate-free by construction.  The order of emission is deterministic
and documented, because downstream searches return the first hit and
therefore rely on it for witness minimality.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterator

from .arith import factorize, factorizations_up_to, primes_up_to
from .core import GroupShape, PGroupShape


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Every partition of ``total``, each exactly once, parts ascending.

    Emission order is descending lexicographic on the non-increasing
    spelling, reversed to ascending storage: 4 gives (4,), (1, 3),
    (2, 2), (1, 1, 2), (1, 1, 1, 1).
    """
    if total < 1:
        raise ValueError(f"need a positive integer, got {total!r}")
    for parts in _descending(total, total):
        yield parts[::-1]


def _descending(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for head in range(min(remaining, cap), 0, -1):
        for tail in _descending(remaining - head, head):
            yield (head, *tail)


@cache
def _blocks(p: int, a: int) -> tuple[PGroupShape, ...]:
    """Every p-group of order p^a, in :func:`partitions` order, built once."""
    return tuple(PGroupShape(p, exps) for exps in partitions(a))


def pgroup_shapes_up_to(max_order: int) -> Iterator[PGroupShape]:
    """Every abelian p-group of order <= ``max_order``, each exactly once.

    Primes ascending, then the exponent a of |G| = p^a ascending, then
    :func:`partitions` order within one p^a.
    """
    for p in primes_up_to(max_order):
        a = 1
        while p**a <= max_order:
            yield from _blocks(p, a)
            a += 1


def _groups(factors: dict[int, int]) -> Iterator[GroupShape]:
    """One group per choice of block for each prime, primes ascending."""
    return map(GroupShape, product(*(_blocks(p, a) for p, a in factors.items())))


def groups_of_order(order: int) -> Iterator[GroupShape]:
    """Every abelian group of order exactly ``order``, one per iso class.

    Deterministic: primes ascending, one partition stream per prime, the
    partition of the largest prime varying fastest (itertools.product).
    Order 1 yields exactly the trivial group.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    yield from _groups(factorize(order))


def groups_up_to(max_order: int, step: int = 1) -> Iterator[tuple[int, GroupShape]]:
    """(order, group) for each abelian group of order step, 2step, ... <= max_order.

    Same stream as :func:`groups_of_order` over those orders, but factored
    off one sieve (:func:`~abelianaut.arith.factorizations_up_to`), each
    primary block built once per (p, a).  Every sweep reads it: the atlas
    and ``enumerate`` with step 1, the search with the target's denominator.
    """
    if max_order < 1 or step < 1:
        raise ValueError(f"need max_order, step >= 1, got {max_order!r}, {step!r}")
    orders = range(step, max_order + 1, step)
    for order, factors in zip(orders, factorizations_up_to(max_order, step)):
        for shape in _groups(factors):
            yield order, shape

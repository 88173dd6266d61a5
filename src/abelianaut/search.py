"""Realizability search: which rationals equal |Aut(G)|/|G|?

Two cheap screens settle many targets outright: a reduced target whose
denominator is divisible by the square of a prime is never realized by a
finite abelian group, and neither is an integer target that is an odd
prime.  Every other target is searched for exhaustively in enumeration
order, so the first hit is a witness of minimal group order.  Absence of
a witness within bounds proves nothing (the full classification is open)
and is reported as exactly that, never as unrealizable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

from . import core, enumeration
from .arith import factorize, is_prime, is_squarefree
from .core import GroupShape


@dataclass(frozen=True)
class SearchBounds:
    """Limits for one search: group order cap, optional wall-clock cap.

    ``time_limit`` (seconds) applies to :func:`realize` only; the atlas
    is exhaustive by contract.
    """

    max_order: int = 10**4
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError("time_limit must be nonnegative")


class UnrealizableReason(Enum):
    NON_SQUAREFREE_DENOMINATOR = "non-squarefree-denominator"
    ODD_PRIME_TARGET = "odd-prime-target"


@dataclass(frozen=True)
class Witness:
    """A group realizing the target ratio exactly, with its order."""

    group: GroupShape
    order: int


@dataclass(frozen=True)
class Unrealizable:
    """No group of any order realizes the target; the reason says why."""

    reason: UnrealizableReason


@dataclass(frozen=True)
class NotFoundWithinBounds:
    """No witness among groups of order <= max_order_searched; open beyond."""

    max_order_searched: int


SearchVerdict = Union[Witness, Unrealizable, NotFoundWithinBounds]


def _as_positive_fraction(target: Fraction | int) -> Fraction:
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"target ratio must be positive, got {target}")
    return target


def screen(target: Fraction | int) -> UnrealizableReason | None:
    """Decide unrealizability without searching, where provable.

    Returns the reason, or None when the screens say nothing (which does
    NOT mean the target is realizable).
    """
    target = _as_positive_fraction(target)
    if target.denominator > 1 and not is_squarefree(target.denominator):
        return UnrealizableReason.NON_SQUAREFREE_DENOMINATOR
    if target.denominator == 1:
        a = target.numerator
        if a % 2 == 1 and a > 2 and is_prime(a):
            return UnrealizableReason.ODD_PRIME_TARGET
    return None


@lru_cache
def _primes_of(n: int) -> tuple[int, ...]:
    """The distinct primes of ``n``, factored once per value."""
    return tuple(factorize(n))


def denominator_prune(target: Fraction | int, group_order: int) -> bool:
    """True when groups of this order can be skipped for this target.

    Each prime in a realized ratio's reduced denominator must come from
    the matching primary block of the group, so a denominator prime that
    does not divide the group order rules the whole order out.
    """
    target = Fraction(target)
    return any(group_order % q != 0 for q in _primes_of(target.denominator))


def realize(
    target: Fraction | int, bounds: SearchBounds = SearchBounds()
) -> SearchVerdict:
    """Screen, then sweep groups in enumeration order for an exact hit.

    The first hit is returned, so a Witness always has minimal order
    (ties broken by enumeration order).  When the optional time budget
    runs out the verdict is NotFoundWithinBounds over the largest fully
    swept order.
    """
    target = _as_positive_fraction(target)
    reason = screen(target)
    if reason is not None:
        return Unrealizable(reason)
    deadline = None
    if bounds.time_limit is not None:
        deadline = time.monotonic() + bounds.time_limit
    swept = 0
    for order in range(1, bounds.max_order + 1):
        if deadline is not None and time.monotonic() >= deadline:
            return NotFoundWithinBounds(max_order_searched=swept)
        if not denominator_prune(target, order):
            for shape in enumeration.groups_of_order(order):
                if core.ratio(shape) == target:
                    return Witness(group=shape, order=order)
        swept = order
    return NotFoundWithinBounds(max_order_searched=bounds.max_order)


def ratio_atlas(bounds: SearchBounds = SearchBounds()) -> dict[Fraction, Witness]:
    """Every ratio achieved up to max_order, with its first witness.

    Keys appear in discovery order (witness order ascending), so the
    mapping is deterministic and each value is the minimal-order witness
    for its key.
    """
    atlas: dict[Fraction, Witness] = {}
    for order, shape in enumeration.groups_up_to(bounds.max_order):
        r = core.ratio(shape)
        if r not in atlas:
            atlas[r] = Witness(group=shape, order=order)
    return atlas

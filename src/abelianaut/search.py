"""Realizability search: which rationals equal |Aut(G)|/|G|?

Two cheap screens settle many targets outright: a reduced target whose
denominator is divisible by the square of a prime is never realized by a
finite abelian group, and neither is an integer target that is an odd
prime.  Every other target a/b (in lowest terms) is searched for
exhaustively.  |Aut(G)|/|G| reduces to a fraction whose denominator
divides |G|, so only groups whose order is a multiple of b can realize
a/b; the search reads the orders b, 2b, 3b, ... and each order's groups
in enumeration order, with |Aut| from the block table, off the sweep the
atlas reads with step 1, so the first hit is a witness of minimal group
order.  Both build a GroupShape only for what they return.  Absence of a
witness within bounds proves nothing (the full classification is open)
and is reported as exactly that, never as unrealizable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from . import enumeration
from .arith import is_positive_int, is_prime, is_squarefree
from .core import GroupShape


@dataclass(frozen=True)
class SearchBounds:
    """Limits for one :func:`realize`: group order cap, optional wall-clock
    cap in seconds."""

    max_order: int = 10**4
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if not is_positive_int(self.max_order):
            raise ValueError(f"max_order must be an integer >= 1, got {self.max_order!r}")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")


class UnrealizableReason(Enum):
    """A proved screen: its value names it, its explanation says what it proved."""

    NON_SQUAREFREE_DENOMINATOR = (
        "non-squarefree-denominator",
        "the reduced denominator has a squared prime factor")
    ODD_PRIME_TARGET = ("odd-prime-target", "no odd prime is realizable as a ratio")

    def __new__(cls, value: str, explanation: str) -> UnrealizableReason:
        reason = object.__new__(cls)
        reason._value_ = value
        reason.explanation = explanation
        return reason


@dataclass(frozen=True, slots=True)
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


def realize(
    target: Fraction | int, bounds: SearchBounds = SearchBounds()
) -> Witness | Unrealizable | NotFoundWithinBounds:
    """Screen, then sweep the multiples of the target's denominator.

    A group of order n has a ratio whose reduced denominator divides n,
    so for a target a/b only the orders b, 2b, ... <= max_order are
    visited (the sweep under :func:`~abelianaut.enumeration.groups_up_to`,
    step b), and a group hits when |Aut(G)| * b == a * n.  The first hit,
    the only group built as a GroupShape, is returned, so a Witness has
    minimal order (ties broken by enumeration order).  The optional time
    budget is checked before each group; run out on order n, it gives
    NotFoundWithinBounds(n - 1), since every order below n has been swept
    or ruled out by divisibility.
    """
    target = _as_positive_fraction(target)
    reason = screen(target)
    if reason is not None:
        return Unrealizable(reason)
    deadline = None
    if bounds.time_limit is not None:
        deadline = time.monotonic() + bounds.time_limit
    a, b = target.numerator, target.denominator
    for order, groups in enumeration._sweep(bounds.max_order, b):
        for blocks, aut in groups:
            if deadline is not None and time.monotonic() >= deadline:
                return NotFoundWithinBounds(max_order_searched=order - 1)
            if aut * b == a * order:
                return Witness(group=GroupShape(blocks), order=order)
    return NotFoundWithinBounds(max_order_searched=bounds.max_order)


def ratio_atlas(max_order: int = SearchBounds.max_order) -> dict[Fraction, Witness]:
    """Every ratio achieved up to max_order, with its first witness.

    Keys appear in discovery order (witness order ascending), so the
    mapping is deterministic and each value is the minimal-order witness
    for its key.  Ratios are deduped as num * (max_order + 1) + den, one
    int per reduced pair (den <= max_order), before any Fraction is built.
    """
    atlas: dict[Fraction, Witness] = {}
    seen: set[int] = set()
    sweep = enumeration._sweep(max_order)  # refuses a bad max_order first
    radix = max_order + 1
    for order, groups in sweep:
        for blocks, aut in groups:
            g = gcd(aut, order)
            key = aut // g * radix + order // g
            if key not in seen:
                seen.add(key)
                atlas[Fraction(aut, order)] = Witness(GroupShape(blocks), order)
    return atlas

"""Realizability search: which rationals equal |Aut(G)|/|G|?

Six proved screens settle a target a/b (in lowest terms) outright, each
with its own UnrealizableReason:

- non-squarefree-denominator: a prime divides b twice;
- odd-prime-target: a/b is an odd prime;
- non-cyclic-denominator: primes q and p of b have q | p - 1, that is,
  gcd(b, phi(b)) > 1;
- half-integer-target: b = 2 and a is neither 1 nor 3;
- odd-integer-target: b = 1 and a is odd, but neither 1 nor 21;
- odd-over-odd-target: a and b > 1 are odd, and b is not a prime
  q = 3 mod 4 with a = (q-1)/2 or 3(q-1)/2.

The first two are the paper's theorems; the other four sharpen them to
"exactly when", since a named group realizes each case that one of them
allows within its own class of targets: Z_b gives phi(b)/b, in lowest
terms when gcd(b, phi(b)) = 1; Z2 and Z2 x Z2 give 1/2 and 3/2; Z1 and
Z2 x Z2 x Z2 give 1 and 21; Z2 x Z_q and Z2 x Z2 x Z_q give (q-1)/(2q)
and 3(q-1)/(2q).  Other targets, such as even integers, pass every
screen, and passing proves nothing.  The screens factor b alone, never
a: of a they read only its parity, a few fixed values and, for an odd
integer, is_prime, whose FactorizationOverflow past psi_13 is caught,
since odd-integer-target decides such an a anyway.

Proofs.  Write r = |Aut(G)|/|G| as the product over the p-blocks P of G
of r_P = |Aut(P)|/|P|, and |Aut(P)| = p^v * U_P as in core.aut_order_p:
v = n(n-1)/2 + d + c (ValuationParts, n the rank of P) and U_P, prime to
p, is the product of p^i - 1 for i = 1..k_j over each level of k_j equal
exponents e_j.  For a prime l other than p, v_l(r_P) = v_l(U_P) >=
v_l(p - 1) >= 0, and for odd p every p^i - 1 is even, so v_2(r_P) >= n.

Block lemma.  A p-block of order p^a has v_p(r_P) = v - a >= n(n-3)/2,
since d >= 0 and c = sum_j (e_j - 1) k_j K_j >= sum_j (e_j - 1) k_j =
a - n (K_j >= 1 the suffix ranks); exactly, v - a = n(n-3)/2 + d +
sum_j (e_j - 1) k_j (K_j - 1).  So v_p(r_P) >= -1, with equality only at
rank 1 (Z_{p^e}) and at rank 2 with d = 0, that is one level (e, e),
where v - a = 2e - 3 is -1 only for Z_p x Z_p.  Hence v_q(r) =
v_q(r_Q) + sum over the other blocks P of v_q(U_P) >= -1 for every prime
q, and q divides b only when q divides |G|, the q-block Q is Z_{q^e} or
Z_q x Z_q, and q divides no other U_P (the paper's squarefree theorem).

non-cyclic-denominator.  If q and p divide b and q | p - 1, then p
divides |G| and q | p - 1 | U_P, so v_q(r) >= 0: q does not divide b.

half-integer-target.  b = 2 needs v_2(r) = -1, so the 2-block is Z_{2^e}
or Z2 x Z2 and no odd prime divides |G| (its U_P is even).  Then r is
1/2 or 3/2.

odd-integer-target.  For an odd integer r, v_2(r) = 0.  The 2-block
adds at least -1 and each odd block at least 1, so at most one odd
prime p divides |G|.  If one does, its block adds exactly 1, so it is
cyclic, v_p(r_P) = -1, and the 2-block is Z_{2^e} (U = 1) or Z2 x Z2
(U = 3); v_p(r) = 0 then needs p = 3 and Z2 x Z2, and r = (3/2)(2/3) =
1.  Otherwise G is a 2-group of rank n with v - a = 0 >= n(n-3)/2, so
n <= 3, and r = U depends only on the multiplicities: 1, 3 (one level
of two) or 21 (one level of three).  A level of two has v - a = 2e - 3
at rank 2 and v - a >= d > 0 at rank 3, never 0; a level of three has
v - a = 6(e - 1), which is 0 only for Z2 x Z2 x Z2.  So r is 1 or 21.

odd-over-odd-target.  Again v_2(r) = 0, and now an odd prime q of b
divides |G|.  As above, q is the only odd prime of |G|, its block adds
exactly 1 to v_2, so it is Z_{q^f} with v_2(q - 1) = 1, that is q = 3
mod 4, and the 2-block is Z_{2^e} or Z2 x Z2.  Then r is (q-1)/(2q) or
3(q-1)/(2q), with b = q once r is not an integer.

Every other target a/b is searched for exhaustively, by :func:`realize`.
|Aut(G)|/|G| reduces to a fraction whose denominator divides |G|, so
only groups whose order is a multiple of b can realize a/b.  Absence of
a witness within bounds proves nothing (the full classification is
open) and is reported as exactly that, never as unrealizable.

Twin lemma.  Call a p-block with exponents e_1 <= ... <= e_n
ratio-minimal when e_n <= e_{n-1} + 1, reading e_0 = 0 for a cyclic
block: Z_p, or a top exponent that is repeated or one more than the
next.  Call a group ratio-minimal when all its blocks are.  If P is not,
its top exponent e_n >= e_{n-1} + 2 >= 2 is a level of its own, and
lowering it by one gives a block P' with |P'| = |P|/p and r_P' = r_P.
Lowered, e_n - 1 > e_{n-1} is still a level of one, so the
multiplicities and U_P' = U_P stay.  In v = n(n-1)/2 + d + c, n stays;
d = sum over j < m of e_j k_j K_{j+1} does not read the top exponent
e_m; and the top level adds (e_m - 1) k_m K_m = e_m - 1 to c.  So v
falls by one, as does a, and v - a stays.  Replacing P by P' in G gives
a twin G' with |G'| = |G|/p and the same ratio, since r is the product
of the r_P.  Repeating this, which ends as the order falls, leads from
any group G to a ratio-minimal group G* of the same ratio with |G*| <
|G| unless G is ratio-minimal itself.  Every order has a ratio-minimal
group: take Z_p^a for each p^a.

So a sweep of the ratio-minimal groups alone, which is the full sweep
with the other groups left out, in the same order, gives the same atlas,
the same first hits and the same time-limit bound.
- The atlas: a first witness G of a ratio is ratio-minimal, or its twin,
  of smaller order and the same ratio, would come before it in the full
  sweep.  So the fold meets each ratio first at the same witness, meets
  the ratios in the same order, and meets no ratio the full sweep does
  not.
- The first hit of realize: were the full sweep's first hit G not
  ratio-minimal, its twin would have ratio a/b, so an order below |G|
  that b divides, and the stepped sweep would hit the twin first.  So
  that first hit is ratio-minimal, and the fold hits it first too.  With
  no hit in the fold up to the bound there is none in the full sweep, as
  each group has a G* of no larger order and the same ratio.
- The time limit's bound n - 1: when time runs out on order n, every
  ratio-minimal group of order < n that is a multiple of b has been
  tested, or its order was skipped as holding no group of ratio a/b.  A
  group H of order < n with ratio a/b would have such a G*, of order <=
  |H| < n and ratio a/b, which would have hit.  Every multiple of b has
  a ratio-minimal group, and order b is never skipped (its largest prime
  divides b), so the first record has order b, and a zero time limit
  still gives b - 1.

Large-prime lemma.  Let p be the largest prime of n, with p^2 > n.  Then
p divides n once, so every group of order n is Z_p x G' with |G'| = n/p
< p.  Each unit factor q^i - 1 of G' has q^i <= |G'| < p, so p divides
neither |G'| nor |Aut(G')|, and v_p(r) = v_p((p-1)/p) = -1.
- (a) No group of order n has ratio a/b when p does not divide b, so
  realize skips order n before it builds a group of that order.
- (b) Let also p^2 > N, the atlas's bound, and H of order <= N have
  r(H) = r(Z_p x G').  Then v_p(r(H)) = -1, so p divides |H|, and its
  p-block, of order < p^2, is Z_p: H = Z_p x H' with r(H') = r(G').  H
  comes before Z_p x G' in the sweep exactly when H' comes before G',
  since the one-entry Z_p table varies fastest.  So Z_p x G' is a first
  witness exactly when G' is one, and no group without p has its ratio.
  The atlas yields, at order n, Z_p times each first witness of order
  n/p < sqrt(N), in order, and neither dedupes nor keeps those ratios.
  Z_p is ratio-minimal, so this composes with the twin lemma.  Its count
  is |Aut(Z_p)| = p - 1, so the walk builds Z_p itself, once, at order p
  (the first multiple of p), holds it while another multiple of p is at
  most N, and drops it at the last one: no block of a prime past sqrt(N)
  enters the cached block table.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from math import gcd
from numbers import Rational, Real

from . import enumeration
from .arith import (FactorizationOverflow, factorizations_up_to, factorize,
                    is_positive_int, is_prime)
from .core import GroupShape, PGroupShape, _FrozenValue


# Default cap on the group order swept by realize and ratio_atlas.
DEFAULT_MAX_ORDER = 10**4


class UnrealizableReason(Enum):
    """A proved screen: its value names it, its explanation says what it proved."""

    NON_SQUAREFREE_DENOMINATOR = (
        "non-squarefree-denominator",
        "the reduced denominator has a squared prime factor")
    ODD_PRIME_TARGET = ("odd-prime-target", "no odd prime is realizable as a ratio")
    NON_CYCLIC_DENOMINATOR = (
        "non-cyclic-denominator",
        "a prime of the reduced denominator divides p - 1 for another prime p of it")
    HALF_INTEGER_TARGET = (
        "half-integer-target",
        "over 2 only 1/2 (Z2) and 3/2 (Z2 x Z2) are realizable")
    ODD_INTEGER_TARGET = (
        "odd-integer-target",
        "the only odd integers realizable are 1 (Z1) and 21 (Z2 x Z2 x Z2)")
    ODD_OVER_ODD_TARGET = (
        "odd-over-odd-target",
        "odd a over odd b > 1 is realizable only as (q-1)/(2q) or 3(q-1)/(2q) "
        "for a prime q = 3 mod 4")

    def __new__(cls, value: str, explanation: str) -> UnrealizableReason:
        reason = object.__new__(cls)
        reason._value_ = value
        reason.explanation = explanation
        return reason


class NotFoundWithinBounds(_FrozenValue):
    """No witness among groups of order <= max_order_searched; open beyond."""

    __slots__ = __match_args__ = ("max_order_searched",)

    def __init__(self, max_order_searched: int) -> None:
        self._freeze(max_order_searched)


def _as_positive_fraction(target: Fraction | int) -> Fraction:
    if isinstance(target, bool) or not isinstance(target, Rational):
        raise ValueError(f"target ratio must be a Fraction or an int, got {target!r}")
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"target ratio must be positive, got {target}")
    return target


def screen(target: Fraction | int) -> UnrealizableReason | None:
    """Decide unrealizability without searching, where provable.

    Returns the reason (the six screens and their proofs are in the module
    docstring), or None when the screens say nothing (which does NOT mean
    the target is realizable).  The target is a positive int or Fraction;
    a bool, a float or a string raises ValueError.
    """
    target = _as_positive_fraction(target)
    a, b = target.numerator, target.denominator
    primes = factorize(b)
    if any(e > 1 for e in primes.values()):
        return UnrealizableReason.NON_SQUAREFREE_DENOMINATOR
    if b == 1:
        if a % 2 == 0 or a in (1, 21):
            return None
        try:
            if is_prime(a):
                return UnrealizableReason.ODD_PRIME_TARGET
        except FactorizationOverflow:
            pass  # odd, and neither 1 nor 21, whether or not it is prime
        return UnrealizableReason.ODD_INTEGER_TARGET
    if any((p - 1) % q == 0 for p in primes for q in primes):  # p never divides p - 1
        return UnrealizableReason.NON_CYCLIC_DENOMINATOR
    if b == 2:  # else b is odd: an odd prime p of an even b has 2 | p - 1
        return None if a in (1, 3) else UnrealizableReason.HALF_INTEGER_TARGET
    if a % 2 == 1 and not (b in primes and b % 4 == 3 and a in (b // 2, 3 * (b // 2))):
        return UnrealizableReason.ODD_OVER_ODD_TARGET
    return None


def realize(
    target: Fraction | int,
    max_order: int = DEFAULT_MAX_ORDER,
    time_limit: float | None = None,
) -> GroupShape | UnrealizableReason | NotFoundWithinBounds:
    """Screen, then sweep the multiples of the target's denominator.

    ``max_order`` (an int >= 1) caps the group order swept, and
    ``time_limit`` (None, or a number of seconds >= 0) caps the wall-clock
    time; both are checked before the target is screened.  A screened
    target returns the reason :func:`screen` gave.  For a target a/b only
    the orders b, 2b, ... <= max_order are visited; an order whose largest
    prime p has p^2 > n and does not divide b is skipped before any of its
    groups is built, and every other order's ratio-minimal groups are
    tested: a group hits when |Aut(G)| * b == a * n.  The first hit, the
    only group built as a GroupShape, is returned, so the witness has
    minimal order (ties broken by enumeration order).  The time limit is
    checked before each group; run out on order n, it gives
    NotFoundWithinBounds(n - 1), since every order below n has been swept
    or ruled out.  The twin and large-prime lemmas in the module docstring
    show that the groups left out move neither the first hit nor that
    bound.
    """
    t = time_limit
    if t is not None and (isinstance(t, bool) or not isinstance(t, Real) or not t >= 0):
        raise ValueError(f"time_limit must be a number of seconds >= 0, got {t!r}")
    target = _as_positive_fraction(target)
    if not is_positive_int(max_order):
        raise ValueError(f"max_order must be an integer >= 1, got {max_order!r}")
    a, b = target.numerator, target.denominator
    reason = screen(target)
    if reason is not None:
        return reason
    deadline = None if t is None else time.monotonic() + t
    for order, factors in factorizations_up_to(max_order, b):
        p = max(factors, default=1)
        if p * p > order and b % p:  # the large-prime lemma (a): no group hits
            continue
        for blocks, aut in enumeration._groups(True, factors):
            if deadline is not None and time.monotonic() >= deadline:
                return NotFoundWithinBounds(max_order_searched=order - 1)
            if aut * b == a * order:
                return GroupShape(blocks)
    return NotFoundWithinBounds(max_order_searched=max_order)


def ratio_atlas(max_order: int = DEFAULT_MAX_ORDER) -> dict[Fraction, GroupShape]:
    """Every ratio achieved up to max_order, with its first witness.

    Keys appear in discovery order (witness order ascending), so the
    mapping is deterministic and each value is the minimal-order witness
    for its key.  This is :func:`_first_witnesses` gathered into a dict:
    a Fraction and a GroupShape are built once per ratio, never per group.
    The CLI's ``atlas`` reads that walk itself and writes each row as its
    ratio is first seen.
    """
    return {Fraction(num, den): GroupShape(blocks)
            for num, den, _, blocks in _first_witnesses(max_order)}


def _first_witnesses(
    max_order: int,
) -> Iterator[tuple[int, int, int, tuple[PGroupShape, ...]]]:
    """(ratio_num, ratio_den, order, blocks) for each reduced ratio of a group
    of order <= max_order, the first time the sweep reaches it.

    The sweep runs orders ascending, so each ratio comes with its
    minimal-order witness (ties broken by enumeration order); it reads only
    the ratio-minimal groups, among which, by the twin lemma in the module
    docstring, every first witness is.  An order whose largest prime p has
    p^2 > max_order builds no group: by the large-prime lemma its first
    witnesses are Z_p times those of order/p, whose (blocks, |Aut|) the walk
    keeps for each order n with n^2 < max_order.  Z_p is built once, at
    order p, not read from the cached block table, and held only until the
    last multiple of p <= max_order.  Every other order's ratios
    are deduped as num * (max_order + 1) + den, one int per reduced pair
    (den <= max_order).  The bound is checked when the walk starts.
    """
    if not is_positive_int(max_order):
        raise ValueError(f"max_order must be an integer >= 1, got {max_order!r}")
    radix = max_order + 1
    seen: set[int] = set()
    kept: dict[int, list[tuple[tuple[PGroupShape, ...], int]]] = {}
    cyclic: dict[int, PGroupShape] = {}  # Z_p while a multiple of p is ahead
    for order, factors in factorizations_up_to(max_order):
        p = max(factors, default=1)
        if p * p > max_order:  # the large-prime lemma (b)
            z_p = cyclic.pop(p) if p in cyclic else PGroupShape(p, (1,))
            if order + p <= max_order:
                cyclic[p] = z_p
            for blocks, aut in kept[order // p]:
                aut *= p - 1  # |Aut(Z_p)|
                g = gcd(aut, order)
                yield aut // g, order // g, order, (*blocks, z_p)
            continue
        firsts = []
        for blocks, aut in enumeration._groups(True, factors):
            g = gcd(aut, order)
            num, den = aut // g, order // g
            key = num * radix + den
            if key not in seen:
                seen.add(key)
                firsts.append((blocks, aut))
                yield num, den, order, blocks
        if order * order < max_order:
            kept[order] = firsts

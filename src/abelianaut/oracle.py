"""Brute-force automorphism counting for small abelian p-groups.

The count comes straight from the definition.  An endomorphism of
Z_{p^e_1} x ... x Z_{p^e_n} is fixed by choosing an image for each
canonical generator, and any choice works as long as the i-th image is
killed by p^e_i; the endomorphism is an automorphism exactly when the
images generate the whole group, because on a finite group a surjective
endomorphism is already bijective.  So: enumerate the image tuples, keep
the ones whose subgroup closure is everything, and count.

The tuples are walked slot by slot, depth first, so tuples that share a
prefix share that prefix's closure.  One routine, :func:`_extend`, grows
a subgroup H by one generator g as the union of the cosets H + j*g for
j below k = min{k >= 1 : k*g in H}, so |<H, g>| = |H| * k.

At the last slot nothing is built and no multiple of g is walked.  Let
q = |G| / |H|.  A candidate g completes the tuple exactly when q == 1, or
when q > 1 and (q/p)*g is not in H.  Proof: g completes exactly when
|H| * k = |G|, that is, when k = q.

- The cosets H + j*g for 0 <= j < k are pairwise disjoint: if
  H + i*g = H + j*g with 0 <= i < j < k, then (j - i)*g is in H with
  0 < j - i < k, against the choice of k.  They lie in G, so |H| * k is
  at most |G|, that is, k <= q.
- The set {j in Z : j*g in H} is closed under sums and negation, so it is
  the subgroup kZ.  It contains |G| = p^a, because |G|*g = 0 is in H.  So
  k divides p^a and is a power of p.  By Lagrange, q is a power of p too.
- If q == 1, then k = 1 = q, and every candidate completes.  Otherwise
  q/p is an integer, and a power of p that is at most q fails to divide
  q/p exactly when it equals q.  So k = q exactly when k does not divide
  q/p, that is, exactly when (q/p)*g is not in H.

This is counting on cosets and nothing more: no formula for |Aut|, no
Frattini argument and no rank argument.  In particular q == 1 cannot
arise through :func:`count_automorphisms`, since n - 1 images cannot
generate a group of rank n, but the branch stays rather than lean on that.
Within one call each last-slot candidate is scaled once per distinct
multiplier q/p (at most a of them), and each completion test is one set
probe.

Nothing here shares logic with the closed-form path in :mod:`.core` --
no formula, no matrix bookkeeping -- which is what makes agreement
between the two paths meaningful evidence.  The candidate space is
|G|^rank tuples, so an explicit budget guards every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import add, mod
from typing import Iterable, Sequence

from .arith import is_positive_int
from .core import PGroupShape

# One residue per cyclic factor, coordinate i in [0, p^e_i).
ElementVector = tuple[int, ...]


@dataclass(frozen=True)
class OracleBudget:
    """Cap on |G|^rank, the raw candidate-tuple count, for one call."""

    max_candidate_tuples: int = 10**6

    def __post_init__(self) -> None:
        if not is_positive_int(self.max_candidate_tuples):
            raise ValueError(
                f"budget must be an integer >= 1, got {self.max_candidate_tuples!r}")


class BudgetExceeded(RuntimeError):
    """The candidate space is too large; skip the shape, never estimate."""


def _moduli(shape: PGroupShape) -> list[int]:
    return [shape.p**e for e in shape.exponents]


def _check_vector(vector: Sequence[int], shape: PGroupShape) -> ElementVector:
    v = tuple(vector)
    if len(v) != shape.rank:
        raise ValueError(f"expected {shape.rank} coordinates, got {len(v)}")
    for c, m in zip(v, _moduli(shape)):
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coordinate {c!r} is not an integer")
        if not 0 <= c < m:
            raise ValueError(f"coordinate {c} out of range [0, {m})")
    return v


def element_order(vector: Sequence[int], shape: PGroupShape) -> int:
    """Least k >= 1 with k * vector = 0; always a power of p.

    Coordinate-wise: a residue divisible by p^t but not p^(t+1) inside
    Z_{p^e} needs p^(e-t) steps to die, and the order is the max over
    coordinates (1 for the identity).
    """
    v = _check_vector(vector, shape)
    p = shape.p
    needed = 0
    for c, e in zip(v, shape.exponents):
        if c == 0:
            continue
        val = 0
        while c % p == 0:
            c //= p
            val += 1
        needed = max(needed, e - val)
    return p**needed


def _add(u: ElementVector, v: ElementVector, moduli: Sequence[int]) -> ElementVector:
    return tuple(map(mod, map(add, u, v), moduli))


def _scale(g: ElementVector, j: int, moduli: Sequence[int]) -> ElementVector:
    return tuple(c * j % m for c, m in zip(g, moduli))


def _extend(
    subgroup: set[ElementVector], g: ElementVector, moduli: Sequence[int]
) -> set[ElementVector]:
    """The subgroup generated by ``subgroup`` and ``g``.

    With k = min{k >= 1 : k*g in H}, the cosets H + j*g for 0 <= j < k are
    pairwise disjoint and their union is closed under adding g, so it is
    <H, g>, of order |H| * k.
    """
    out = set(subgroup)
    m = g
    while m not in subgroup:
        out.update([_add(h, m, moduli) for h in subgroup])
        m = _add(m, g, moduli)
    return out


def subgroup_closure(
    generators: Iterable[Sequence[int]], shape: PGroupShape
) -> int:
    """Order of the subgroup the given vectors generate ([] gives 1)."""
    moduli = _moduli(shape)
    closure = {(0,) * shape.rank}
    for v in generators:
        closure = _extend(closure, _check_vector(v, shape), moduli)
    return len(closure)


def count_automorphisms(
    shape: PGroupShape, budget: OracleBudget | None = None
) -> int:
    """|Aut(G)| by direct enumeration of generator-image tuples.

    Raises :class:`BudgetExceeded` when |G|^rank exceeds the budget; the
    caller is expected to skip the shape, not to approximate.
    """
    if budget is None:
        budget = OracleBudget()
    size = shape.order
    n = shape.rank
    if size**n > budget.max_candidate_tuples:
        raise BudgetExceeded(
            f"|G|^rank = {size}^{n} exceeds the budget of "
            f"{budget.max_candidate_tuples} candidate tuples"
        )
    moduli = _moduli(shape)
    # Slot i admits exactly the elements killed by m_i = p^e_i: those whose
    # j-th coordinate is a multiple of m_j / gcd(m_j, m_i).
    slots = [list(product(*(range(0, m, m // gcd(m, mi)) for m in moduli)))
             for mi in moduli]
    return _count({(0,) * n}, slots, moduli, size, shape.p, {})


def _count(
    prefix: set[ElementVector],
    slots: list[list[ElementVector]],
    moduli: list[int],
    size: int,
    p: int,
    multiples: dict[int, list[ElementVector]],
) -> int:
    """Fillings of ``slots`` that, with the closure ``prefix`` of the images
    chosen so far, generate all ``size`` elements.  ``multiples`` caches
    j*g for each last-slot candidate g, keyed by the multiplier j."""
    first, rest = slots[0], slots[1:]
    if not rest:
        q = size // len(prefix)
        if q == 1:
            return len(first)
        j = q // p
        if j not in multiples:
            multiples[j] = [_scale(g, j, moduli) for g in first]
        return len(first) - sum(map(prefix.__contains__, multiples[j]))
    return sum(_count(_extend(prefix, g, moduli), rest, moduli, size, p, multiples)
               for g in first)

"""Canonical shapes of finite abelian groups and exact automorphism counts.

Every finite abelian group factors as a product of cyclic groups of
prime-power order, grouped by prime::

    G  =  X_p ( Z_{p^e_1} x ... x Z_{p^e_n} ),    e_1 <= ... <= e_n

:class:`PGroupShape` records one prime block (the prime plus its sorted
exponent partition); :class:`GroupShape` records the whole product.  The
automorphism count of a prime block is a closed-form product over the
exponent positions, and blocks of coprime order cannot map into one
another, so the count for the whole group is just the product over blocks.
Sweeps do not call these per group: :mod:`abelianaut.enumeration`
counts each block once in its block table and multiplies the counts.

All arithmetic is exact: Python big integers for counts and orders,
:class:`fractions.Fraction` for the ratio |Aut(G)|/|G|.  There is no
floating point anywhere in this package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import groupby
from math import prod
from typing import Iterable, Mapping

from .arith import InvalidModulus, factorize, is_positive_int, is_prime


@dataclass(frozen=True, slots=True)
class PGroupShape:
    """A finite abelian p-group: a prime and a sorted exponent partition.

    ``PGroupShape(3, (1, 2))`` is Z_3 x Z_9.  Exponents may be given in any
    order; they are sorted ascending on construction, which is the order
    every formula below assumes.
    """

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("exponent partition must be nonempty")
        if not all(map(is_positive_int, exps)):
            raise ValueError(f"exponents must be positive integers, got {exps!r}")
        if not is_positive_int(self.p) or not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p!r}")
        object.__setattr__(self, "exponents", tuple(sorted(exps)))

    @property
    def rank(self) -> int:
        """Number of cyclic factors."""
        return len(self.exponents)

    @property
    def order_exponent(self) -> int:
        """The a in |G| = p^a."""
        return sum(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** self.order_exponent

    def __str__(self) -> str:
        return " x ".join(f"Z{self.p ** e}" for e in self.exponents)


@dataclass(frozen=True, slots=True)
class GroupShape:
    """A finite abelian group as its canonical per-prime decomposition.

    Factors are kept sorted by prime; the empty product is the trivial
    group (order 1).  Instances are immutable and hashable, and slotted
    (no per-instance dict), since the ratio atlas keeps one per ratio.
    """

    factors: tuple[PGroupShape, ...] = ()

    def __post_init__(self) -> None:
        if any(not isinstance(f, PGroupShape) for f in self.factors):
            raise TypeError("factors must be PGroupShape instances")
        factors = tuple(sorted(self.factors, key=lambda f: f.p))
        if any(a.p == b.p for a, b in zip(factors, factors[1:])):
            raise ValueError("one factor per prime; merge exponent lists instead")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_exponents(cls, parts: Mapping[int, Iterable[int]]) -> "GroupShape":
        """Build from ``{prime: exponent list}``, e.g. ``{2: [1], 3: [1, 2]}``."""
        return cls(tuple(PGroupShape(p, tuple(es)) for p, es in parts.items()))

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def component(self, p: int) -> PGroupShape | None:
        """The p-primary block, or None when p does not divide the order."""
        for f in self.factors:
            if f.p == p:
                return f
        return None

    def __str__(self) -> str:
        if not self.factors:
            return "Z1"
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class ValuationParts:
    """Exact multiplicity of p in |Aut| of a p-group, split by source.

    n is the rank, d collects the contributions from mapping
    lower-exponent factors into strictly higher ones, and c the
    contributions within and above each exponent level.
    """

    n: int
    d: int
    c: int

    @property
    def total(self) -> int:
        """The multiplicity itself: n(n-1)/2 + d + c."""
        return self.n * (self.n - 1) // 2 + self.d + self.c


class PGroupClassKind(Enum):
    """Shape patterns with a known closed-form ratio, plus the rest."""

    CYCLIC = "cyclic"
    ELEMENTARY_RANK2 = "elementary-rank-2"
    ZP_TIMES_HIGHER = "zp-times-higher"
    ELEMENTARY_RANK3 = "elementary-rank-3"
    GENERAL = "general"


def canonicalize(moduli: Iterable[int]) -> GroupShape:
    """Canonical shape of Z_{m_1} x ... x Z_{m_t}.

    Composite moduli split into prime-power cyclic factors (Chinese
    remainder theorem), factors regroup by prime, exponents sort
    ascending.  Moduli equal to 1 contribute nothing.

    >>> str(canonicalize([12, 18]))
    'Z2 x Z4 x Z3 x Z9'
    >>> str(canonicalize([1]))
    'Z1'
    """
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        if not is_positive_int(m):
            raise InvalidModulus(f"moduli must be integers >= 1, got {m!r}")
        for p, e in factorize(m).items():
            per_prime.setdefault(p, []).append(e)
    return GroupShape.from_exponents(per_prime)


def aut_order_p(shape: PGroupShape) -> int:
    """Exact automorphism count of an abelian p-group.

    With exponents sorted ascending, write last_k / first_k for the last
    and first positions (1-based) whose exponent equals the k-th.  The
    count is the product of three factors over all positions: a unit-like
    factor p^last_k - p^(k-1) counting invertible choices among factors of
    equal exponent, and two power factors for the homomorphism freedom
    into higher- and lower-exponent factors (Hillar and Rhea, "Automorphisms
    of finite abelian groups", Amer. Math. Monthly 114, 2007).

    Not memoized: sweeps read each block's count off the enumeration's table.

    >>> aut_order_p(PGroupShape(2, (1, 1)))
    6
    >>> aut_order_p(PGroupShape(3, (1, 2)))
    108
    """
    p = shape.p
    exps = shape.exponents
    n = len(exps)
    last = [bisect_right(exps, e) for e in exps]
    first = [bisect_left(exps, e) + 1 for e in exps]
    units = prod(p ** last[k] - p**k for k in range(n))
    into_higher = prod((p**e) ** (n - lk) for e, lk in zip(exps, last))
    into_lower = prod((p ** (e - 1)) ** (n - fk + 1) for e, fk in zip(exps, first))
    return units * into_higher * into_lower


def aut_order(group: GroupShape) -> int:
    """|Aut(G)| for any finite abelian group; 1 for the trivial group."""
    return prod(aut_order_p(f) for f in group.factors)


def ratio(group: GroupShape) -> Fraction:
    """|Aut(G)| / |G| as an exact reduced fraction.

    >>> ratio(canonicalize([2, 3, 9]))
    Fraction(2, 1)
    """
    return Fraction(aut_order(group), group.order)


def p_valuation_of_aut(shape: PGroupShape) -> ValuationParts:
    """Largest power of p dividing aut_order_p(shape), in closed form.

    With the distinct exponents e_1 < ... < e_m, k_j factors of exponent
    e_j, and suffix rank sums K_j = k_j + ... + k_m,

        d = sum over j < m of e_j * k_j * K_{j+1}
        c = sum over all j of (e_j - 1) * k_j * K_j

    and the total multiplicity is n(n-1)/2 + d + c.
    """
    levels = [(e, len(list(g))) for e, g in groupby(shape.exponents)]
    m = len(levels)
    suffix = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] + levels[j][1]
    n = suffix[0]
    d = sum(e * k * suffix[j + 1] for j, (e, k) in enumerate(levels[:-1]))
    c = sum((e - 1) * k * suffix[j] for j, (e, k) in enumerate(levels))
    return ValuationParts(n=n, d=d, c=c)


def classify(shape: PGroupShape) -> PGroupClassKind:
    """Match the shape against the patterns with closed-form ratios.

    >>> classify(PGroupShape(3, (1, 2)))
    <PGroupClassKind.ZP_TIMES_HIGHER: 'zp-times-higher'>
    """
    exps = shape.exponents
    if len(exps) == 1:
        return PGroupClassKind.CYCLIC
    if exps == (1, 1):
        return PGroupClassKind.ELEMENTARY_RANK2
    if len(exps) == 2 and exps[0] == 1:
        return PGroupClassKind.ZP_TIMES_HIGHER
    if exps == (1, 1, 1):
        return PGroupClassKind.ELEMENTARY_RANK3
    return PGroupClassKind.GENERAL


def closed_form_ratio(shape: PGroupShape) -> Fraction | None:
    """The exact ratio for the four closed-form classes, else None.

    Cyclic groups give (p-1)/p; Z_p x Z_p gives (p-1)^2 (p+1) / p;
    Z_p x Z_{p^i} with i > 1 gives (p-1)^2 regardless of i; and
    Z_p x Z_p x Z_p gives (p-1)^3 (p+1) (p^2+p+1).  For the general
    class there is no closed form, only the guarantee that the ratio is
    an integer divisible by p(p-1)^2, so None comes back.
    """
    p = shape.p
    kind = classify(shape)
    if kind is PGroupClassKind.CYCLIC:
        return Fraction(p - 1, p)
    if kind is PGroupClassKind.ELEMENTARY_RANK2:
        return Fraction((p - 1) ** 2 * (p + 1), p)
    if kind is PGroupClassKind.ZP_TIMES_HIGHER:
        return Fraction((p - 1) ** 2)
    if kind is PGroupClassKind.ELEMENTARY_RANK3:
        return Fraction((p - 1) ** 3 * (p + 1) * (p * p + p + 1))
    return None

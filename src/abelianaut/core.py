"""Canonical shapes of finite abelian groups and exact automorphism counts.

Every finite abelian group factors as a product of cyclic groups of
prime-power order, grouped by prime::

    G  =  X_p ( Z_{p^e_1} x ... x Z_{p^e_n} ),    e_1 <= ... <= e_n

:class:`PGroupShape` records one prime block (the prime plus its sorted
exponent partition); :class:`GroupShape` records the whole product.  The
automorphism count of a prime block is p^v times the product of
p^i - 1 for i = 1..k over each exponent level of k equal factors, with v
its closed-form p-valuation; blocks of coprime order cannot map into one
another, so the count for the whole group is just the product over blocks.
Sweeps do not call these per group: :mod:`abelianaut.enumeration`
counts each block once per block table (the full table, and the table of
ratio-minimal blocks) and multiplies the counts.

All arithmetic is exact: Python big integers for counts and orders,
:class:`fractions.Fraction` for the ratio |Aut(G)|/|G|.  There is no
floating point anywhere in this package.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from itertools import groupby
from math import prod
from operator import attrgetter

from .arith import InvalidModulus, factorize, is_positive_int, is_prime


class _FrozenValue:
    """Base of the immutable value classes: a subclass names its fields as
    both ``__slots__`` and ``__match_args__`` and sets them in ``__init__``
    through :meth:`_freeze`.  An instance equals only its own class with
    equal fields, hashes as its field tuple, has no ordering, refuses
    assignment and deletion, and pickles and copies through its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _freeze(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class PGroupShape(_FrozenValue):
    """A finite abelian p-group: a prime and a sorted exponent partition.

    ``PGroupShape(3, (1, 2))`` is Z_3 x Z_9.  Exponents may be given in any
    order; they are sorted ascending on construction, which is the order
    every formula below assumes.  The text is built on the first ``str()``
    and kept in a slot that is no field: equality, hashing, ``repr``,
    pickling and copying never see it.
    """

    __match_args__ = ("p", "exponents")
    __slots__ = (*__match_args__, "_text")

    def __init__(self, p: int, exponents: Iterable[int]) -> None:
        exps = tuple(exponents)
        if not exps:
            raise ValueError("exponent partition must be nonempty")
        if not all(map(is_positive_int, exps)):
            raise ValueError(f"exponents must be positive integers, got {exps!r}")
        if not is_positive_int(p) or not is_prime(p):
            raise ValueError(f"p must be prime, got {p!r}")
        self._freeze(p, tuple(sorted(exps)))

    @property
    def rank(self) -> int:
        """Number of cyclic factors."""
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = " x ".join(f"Z{self.p ** e}" for e in self.exponents)
            object.__setattr__(self, "_text", text)
            return text


class GroupShape(_FrozenValue):
    """A finite abelian group as its canonical per-prime decomposition.

    Factors are kept sorted by prime; the empty product is the trivial
    group (order 1).  Instances are immutable and hashable, and slotted
    (no per-instance dict), since the ratio atlas keeps one per ratio.
    """

    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: Iterable[PGroupShape] = ()) -> None:
        factors = tuple(factors)
        if any(not isinstance(f, PGroupShape) for f in factors):
            raise TypeError("factors must be PGroupShape instances")
        factors = tuple(sorted(factors, key=lambda f: f.p))
        if any(a.p == b.p for a, b in zip(factors, factors[1:])):
            raise ValueError("one factor per prime; merge exponent lists instead")
        self._freeze(factors)

    @classmethod
    def from_exponents(cls, parts: Mapping[int, Iterable[int]]) -> "GroupShape":
        """Build from ``{prime: exponent list}``, e.g. ``{2: [1], 3: [1, 2]}``."""
        return cls(PGroupShape(p, es) for p, es in parts.items())

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
        return blocks_text(self.factors)


class ValuationParts(_FrozenValue):
    """Exact multiplicity of p in |Aut| of a p-group, split by source.

    n is the rank, d collects the contributions from mapping
    lower-exponent factors into strictly higher ones, and c the
    contributions within and above each exponent level.
    """

    __slots__ = __match_args__ = ("n", "d", "c")

    def __init__(self, n: int, d: int, c: int) -> None:
        self._freeze(n, d, c)

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
    """Exact automorphism count of an abelian p-group, one level at a time.

    Hillar and Rhea ("Automorphisms of finite abelian groups", Amer. Math.
    Monthly 114, 2007) count |Aut(P)| as powers of p times a unit factor
    prod_k (p^last_k - p^(k-1)), last_k the last position (1-based, exponents
    ascending) whose exponent equals the k-th.  A level of k equal exponents
    at positions f..f+k-1 has last = f+k-1, so its unit factors are
    p^(f+t-2) (p^(k-t+1) - 1) for t = 1..k.  As p divides no p^i - 1,

        |Aut(P)| = p^v * prod over levels j of prod_{i=1..k_j} (p^i - 1)

    with k_j the multiplicity of the j-th distinct exponent and v the total
    of :func:`p_valuation_of_aut`.  Hence p - 1 divides |Aut(P)|; its
    part prime to p depends only on the multiplicities; and for odd p each
    p^i - 1 is even, so v_2(|Aut(P)|) >= rank: v_2 = 1 only for cyclic P.

    Not memoized: sweeps read each block's count off the enumeration's table.

    >>> aut_order_p(PGroupShape(2, (1, 1)))
    6
    >>> aut_order_p(PGroupShape(3, (1, 2)))
    108
    """
    p = shape.p
    units = prod(p**i - 1 for _, g in groupby(shape.exponents)
                 for i in range(1, len(list(g)) + 1))
    n, d, c = _valuation_parts(shape.exponents)
    return p ** (n * (n - 1) // 2 + d + c) * units


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
    """Multiplicity of p in |Aut(P)| for the p-group P = shape, in closed form.

    With the distinct exponents e_1 < ... < e_m, k_j factors of exponent
    e_j, and suffix rank sums K_j = k_j + ... + k_m,

        d = sum over j < m of e_j * k_j * K_{j+1}
        c = sum over all j of (e_j - 1) * k_j * K_j

    and the total multiplicity is n(n-1)/2 + d + c.
    """
    return ValuationParts(*_valuation_parts(shape.exponents))


def _valuation_parts(exponents: tuple[int, ...]) -> tuple[int, int, int]:
    """(n, d, c) of :func:`p_valuation_of_aut` for ascending ``exponents``."""
    n = K = len(exponents)  # K runs down the suffix rank sums K_1 = n, K_2, ...
    d = c = 0
    for e, g in groupby(exponents):
        k = len(list(g))
        c += (e - 1) * k * K
        K -= k
        d += e * k * K
    return n, d, c


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
    Z_p x Z_p x Z_p gives (p-1)^3 (p+1) (p^2+p+1).  The general class
    has no class-specific formula, so None comes back: its ratio is
    ``aut_order_p(shape) / |P|``, an integer divisible by p(p-1)^2.
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


_text_of = attrgetter("_text")


def blocks_text(blocks: tuple[PGroupShape, ...]) -> str:
    """The text of the group whose primary blocks are ``blocks``, in the
    order given: ``Z2 x Z3 x Z9``, or ``Z1`` for no block.  Each block's
    text is built once, by its first ``str()``; once all are built, they
    are joined with no call to ``__str__``."""
    try:
        return " x ".join(map(_text_of, blocks)) or "Z1"
    except AttributeError:
        return " x ".join(map(str, blocks)) or "Z1"

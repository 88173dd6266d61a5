"""Exact |Aut(G)| and |Aut(G)|/|G| for finite abelian groups.

Closed-form automorphism counts, a brute-force counting oracle to check
them against, exhaustive enumeration of abelian groups by order, and a
realizability search for target ratios.  All arithmetic is exact.
"""

from .arith import (
    FactorizationOverflow,
    InvalidModulus,
    factorize,
    is_prime,
    primes_up_to,
)
from .core import (
    GroupShape,
    PGroupClassKind,
    PGroupShape,
    aut_order,
    aut_order_p,
    canonicalize,
    classify,
    closed_form_ratio,
    p_valuation_of_aut,
    ratio,
)
from .enumeration import partitions
from .search import (
    NotFoundWithinBounds,
    UnrealizableReason,
    ratio_atlas,
    realize,
    screen,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "FactorizationOverflow",
    "GroupShape",
    "InvalidModulus",
    "NotFoundWithinBounds",
    "PGroupClassKind",
    "PGroupShape",
    "UnrealizableReason",
    "aut_order",
    "aut_order_p",
    "canonicalize",
    "classify",
    "closed_form_ratio",
    "count_automorphisms",
    "factorize",
    "is_prime",
    "p_valuation_of_aut",
    "partitions",
    "primes_up_to",
    "ratio",
    "ratio_atlas",
    "realize",
    "screen",
]


def __getattr__(name: str):
    # The oracle loads on first use: only verify counts with it, and every
    # other caller would pay to compile and import it.
    if name in ("BudgetExceeded", "count_automorphisms"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

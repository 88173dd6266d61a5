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
    # The oracle and the search load on first use: only verify counts with
    # the oracle, and only search and atlas sweep for ratios.  Every other
    # caller would pay to compile and import them, and fractions with the
    # search.
    if name in ("BudgetExceeded", "count_automorphisms"):
        from . import oracle

        return getattr(oracle, name)
    if name in ("NotFoundWithinBounds", "UnrealizableReason", "ratio_atlas",
                "realize", "screen"):
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

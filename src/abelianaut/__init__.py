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
    is_squarefree,
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
from .enumeration import groups_of_order, groups_up_to, partitions
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    count_automorphisms,
    element_order,
    subgroup_closure,
)
from .search import (
    NotFoundWithinBounds,
    SearchBounds,
    Unrealizable,
    UnrealizableReason,
    Witness,
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
    "OracleBudget",
    "PGroupClassKind",
    "PGroupShape",
    "SearchBounds",
    "Unrealizable",
    "UnrealizableReason",
    "Witness",
    "aut_order",
    "aut_order_p",
    "canonicalize",
    "classify",
    "closed_form_ratio",
    "count_automorphisms",
    "element_order",
    "factorize",
    "groups_of_order",
    "groups_up_to",
    "is_prime",
    "is_squarefree",
    "p_valuation_of_aut",
    "partitions",
    "primes_up_to",
    "ratio",
    "ratio_atlas",
    "realize",
    "screen",
    "subgroup_closure",
]

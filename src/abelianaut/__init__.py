"""Exact |Aut(G)| and |Aut(G)|/|G| for finite abelian groups.

Closed-form automorphism counts, a brute-force counting oracle to check
them against, exhaustive enumeration of abelian groups by order, and a
realizability search for target ratios.  All arithmetic is exact.
"""

from .arith import (
    DEFAULT_TRIAL_DIVISOR_LIMIT,
    FactorizationOverflow,
    InvalidModulus,
    factorize,
    is_prime,
    is_squarefree,
    primes_up_to,
)
from .core import (
    DivisibleGuaranteeOnly,
    GroupShape,
    PGroupClass,
    PGroupClassKind,
    PGroupShape,
    ValuationParts,
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
    ElementVector,
    OracleBudget,
    count_automorphisms,
    element_order,
    subgroup_closure,
)
from .search import (
    NotFoundWithinBounds,
    SearchBounds,
    SearchVerdict,
    Unrealizable,
    UnrealizableReason,
    Witness,
    denominator_prune,
    ratio_atlas,
    realize,
    screen,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRIAL_DIVISOR_LIMIT",
    "BudgetExceeded",
    "DivisibleGuaranteeOnly",
    "ElementVector",
    "FactorizationOverflow",
    "GroupShape",
    "InvalidModulus",
    "NotFoundWithinBounds",
    "OracleBudget",
    "PGroupClass",
    "PGroupClassKind",
    "PGroupShape",
    "SearchBounds",
    "SearchVerdict",
    "Unrealizable",
    "UnrealizableReason",
    "ValuationParts",
    "Witness",
    "aut_order",
    "aut_order_p",
    "canonicalize",
    "classify",
    "closed_form_ratio",
    "count_automorphisms",
    "denominator_prune",
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

"""Exact |Aut(G)| and |Aut(G)|/|G| for finite abelian groups.

Closed-form automorphism counts, a brute-force counting oracle to check
them against, exhaustive enumeration of abelian groups by order, and a
realizability search for target ratios.  All arithmetic is exact.
"""

__version__ = "0.1.0"

# Each public name and its home module, which loads on first use (PEP 562):
# ``import abelianaut`` alone loads no submodule, and a caller compiles only
# the modules it reaches, so no oracle, search or fractions unless it asks.
_HOME = {name: module for module, names in (
    ("arith", "FactorizationOverflow InvalidModulus factorize is_prime primes_up_to"),
    ("core", "GroupShape PGroupClassKind PGroupShape aut_order aut_order_p canonicalize "
             "classify closed_form_ratio p_valuation_of_aut ratio"),
    ("enumeration", "partitions"),
    ("oracle", "BudgetExceeded count_automorphisms"),
    ("search", "NotFoundWithinBounds UnrealizableReason ratio_atlas realize screen"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib, which python -S does not preload
    return getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return __all__

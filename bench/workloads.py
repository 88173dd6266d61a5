"""The benchmark's workloads: what each one runs, and why.

A *pass* of a workload is its list of CLI invocations, each run as its own
``python -m abelianaut ...`` process.  A *set-up probe* is the workload's
subcommand on its smallest input, so it costs only the interpreter start,
the imports and argument parsing that every invocation pays.

atlas
    ``atlas --max-order 20000 --format csv``, one invocation per pass.
    Nearly all the work is in ``enumeration`` and ``core`` plus the CSV rows
    that ``cli`` writes; ``oracle`` and ``search.denominator_prune`` never
    run.  A sieve or block cache for the enumeration, and any change to the
    output path, shows here.

search
    About twenty targets drawn from the seed, each its own
    ``search <t> --max-order 10000 --format json``.  ``enumeration`` and
    ``core`` run lazily, one order at a time, with early exit and pruning,
    so work done eagerly up to the bound costs time here instead of saving
    it.  Screens and the per-invocation set-up carry weight.  The classes
    and their shares are in :data:`SEARCH_CLASSES`.

verify
    ``verify --max-order 64`` (the user default) and
    ``verify --max-order 300 --budget 300`` (includes Z257 to Z293, which
    take the oracle's path for groups past its addition-table limit).  The
    ``oracle`` does more than 99% of the work; ``enumeration`` and ``core``
    almost none.

Only the ``search`` targets depend on the seed; the ``atlas`` and ``verify``
inputs are fixed.  Every pass runs its invocations in an order drawn from
the seed and the pass number, so drift in machine speed falls on all of
them alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from reference import Reference, check_atlas, check_search, check_verify, check_text

ATLAS_MAX_ORDER = 20_000
SEARCH_MAX_ORDER = 10_000

ATLAS_ARGV = ("atlas", "--max-order", str(ATLAS_MAX_ORDER), "--format", "csv")
VERIFY_ARGVS = (
    ("verify", "--max-order", "64"),
    ("verify", "--max-order", "300", "--budget", "300"),
)

# Smallest input of each subcommand.  ``verify --max-order 2`` checks one
# shape (Z2) rather than none, so a CLI that refuses a vacuous verify
# (checked=0) still passes the probe.
SETUP_ARGVS = {
    "atlas": ("atlas", "--max-order", "1", "--format", "csv"),
    "search": ("search", "1", "--max-order", "1", "--format", "json"),
    "verify": ("verify", "--max-order", "2"),
}

# class -> (targets per pass, what the class exercises)
SEARCH_CLASSES = {
    "witness": (8, "ratios from the reference atlas: two integer ratios whose "
                   "first witness is past M/2 (long sweeps ending in a hit) and "
                   "six fractions, one per sixth of [1, M] (short pruned sweeps)"),
    "sweep": (4, "odd composite integers other than 21: no screen settles them, "
                 "so each sweeps every order up to M without pruning"),
    "pruned": (4, "fractions over squarefree composite denominators that are "
                  "not realized within M: denominator_prune skips most orders"),
    "screened": (4, "odd primes and fractions with a non-squarefree denominator: "
                    "settled by a proof at once, so set-up dominates"),
}

# One denominator per pruned slot, so the pruning share and hence the cost of
# the class stays the same from seed to seed; only the numerators vary.
PRUNED_DENOMINATORS = (6, 10, 15, 30)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check its output must pass."""

    argv: tuple[str, ...]
    label: str
    check: Callable[[int, bytes], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Invocation
    passes: tuple[Invocation, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def search_targets(seed: int, ref: Reference) -> list[tuple[str, Fraction]]:
    """The seeded ``search`` targets as (class, target), classes in order.

    Class membership is decided here, by trial division and the reference
    atlas, never by the code under test.
    """
    rng = random.Random(seed)
    m = SEARCH_MAX_ORDER
    atlas = ref.search_atlas
    witnessed = [(r, w) for r, w in atlas.items() if w[0] <= m]
    targets: list[tuple[str, Fraction]] = []

    integers = [r for r, (order, _) in witnessed if r.denominator == 1]
    for lo, hi in ((m // 2, 3 * m // 4), (3 * m // 4, m + 1)):
        band = [r for r in integers if lo <= atlas[r][0] < hi]
        targets.append(("witness", rng.choice(band)))
    fractions = [r for r, _ in witnessed if r.denominator > 1]
    for k in range(6):
        lo, hi = 1 + k * m // 6, 1 + (k + 1) * m // 6
        band = [r for r in fractions if lo <= atlas[r][0] < hi]
        targets.append(("witness", rng.choice(band)))

    odd_composites = [n for n in range(9, 1000, 2) if n != 21 and not _is_prime(n)]
    for n in rng.sample(odd_composites, SEARCH_CLASSES["sweep"][0]):
        targets.append(("sweep", Fraction(n)))

    for den in PRUNED_DENOMINATORS:
        while True:
            t = Fraction(rng.randrange(1, 10**6), den)
            if t.denominator == den and t not in atlas:
                break
        targets.append(("pruned", t))

    odd_primes = [n for n in range(3, 10**4) if _is_prime(n)]
    for n in rng.sample(odd_primes, 2):
        targets.append(("screened", Fraction(n)))
    for _ in range(2):
        while True:
            q = rng.choice((2, 3, 5, 7))
            t = Fraction(rng.randrange(1, 10**4), q * q * rng.randrange(1, 20))
            if not _is_squarefree(t.denominator):
                break
        targets.append(("screened", t))

    for cls, t in targets:
        if cls != "witness" and t in atlas:
            raise ValueError(f"{cls} target {t} is realized in the reference atlas")
    return targets


def _target_text(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def build(name: str, seed: int, ref: Reference) -> Workload:
    """The workload ``name`` for ``seed``, with every check bound to ``ref``."""
    verify_keys = {" ".join(argv) for argv in (*VERIFY_ARGVS, SETUP_ARGVS["verify"])}
    if (ref.atlas_argv != ATLAS_ARGV or ref.search_max_order < SEARCH_MAX_ORDER
            or not verify_keys <= ref.verify.keys()):
        raise ValueError("the reference was frozen for other inputs; run freeze.py "
                         "on the seed code")
    setup_argv = SETUP_ARGVS[name]
    if name == "atlas":
        smallest = ref.atlas_text(1)
        setup = Invocation(setup_argv, "setup",
                           lambda code, out: check_text(code, out, smallest))
        passes = (Invocation(ATLAS_ARGV, "atlas",
                             lambda code, out: check_atlas(code, out, ref)),)
    elif name == "search":
        setup = Invocation(setup_argv, "setup",
                           lambda code, out: check_search(code, out, Fraction(1), 1, ref))
        passes = tuple(
            Invocation(
                ("search", _target_text(t), "--max-order", str(SEARCH_MAX_ORDER),
                 "--format", "json"),
                f"{i}:{cls}:{_target_text(t)}",
                lambda code, out, t=t: check_search(code, out, t, SEARCH_MAX_ORDER, ref),
            )
            for i, (cls, t) in enumerate(search_targets(seed, ref))
        )
    elif name == "verify":
        setup = Invocation(setup_argv, "setup",
                           lambda code, out: check_verify(code, out, setup_argv, ref))
        passes = tuple(
            Invocation(argv, " ".join(argv[1:]),
                       lambda code, out, argv=argv: check_verify(code, out, argv, ref))
            for argv in VERIFY_ARGVS
        )
    else:
        raise KeyError(name)
    return Workload(name, setup, passes)


NAMES = tuple(SETUP_ARGVS)


def pass_order(workload: Workload, seed: int, pass_index: int) -> list[Invocation]:
    """The pass's invocations in an order drawn from (seed, pass index)."""
    order = list(workload.passes)
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order

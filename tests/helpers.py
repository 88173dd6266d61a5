"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: the partition
counter uses the pentagonal-number recurrence instead of generating
partitions, the multiplicity counter is plain repeated division, the
subgroup closure is a breadth-first search under addition instead of the
oracle's coset extension, the naive automorphism count tries every
endomorphism's image tuple with that search instead of the oracle's
cosets and last-slot probe, ``invariant_factors`` swaps pairs of moduli
for their gcd and lcm where ``canonicalize`` factors each modulus, the
reference enumerator ``groups_of_order`` crosses one partition stream
per prime of a trial-division factorization with ``itertools.product``, so
it shares no fold with the sweep's block table, the reference atlas counts
each of its groups through ``aut_order_p`` and a ``Fraction`` instead of
reading the table's |Aut|, and
``hillar_rhea_aut_order`` is Hillar and Rhea's product over exponent
positions.  The library's ``aut_order_p`` takes its power of p from the
level walk of ``p_valuation_of_aut``; the position formula shares nothing
with that walk, so it stays as the reference both are checked against,
and ``hillar_rhea_valuation_parts`` reads the walk's d and c off its
position products.
``screen_false_proofs`` states the ratios of the screens' named witnesses
by hand and finds the totients it needs by counting, and
``large_prime_exceptions`` checks the search module's large-prime lemma on
the reference enumerator's groups.  ``package_imports``
reads the names a module takes from the package off its source, so a test
can pin what a layer may call.  ``sweep`` and ``pgroup_records`` alone
are no oracles: they are the library's own walks, the sieve and
``_groups`` of each order, over every group as enumerate prints it and
over the groups of prime-power order as verify checks them, which the
tests check against the oracles here.
"""

from __future__ import annotations

import ast
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from pathlib import Path
from types import ModuleType

from abelianaut import (
    GroupShape,
    PGroupShape,
    aut_order_p,
    canonicalize,
    factorize,
    partitions,
    ratio,
    ratio_atlas,
    screen,
)
from abelianaut.arith import factorizations_up_to
from abelianaut.core import ValuationParts
from abelianaut.enumeration import _groups


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence (p(0) = 1)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def multiplicity(n: int, p: int) -> int:
    """Multiplicity of p in n by repeated division."""
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def hillar_rhea_aut_order(shape: PGroupShape) -> int:
    """|Aut(P)| as Hillar and Rhea's three products over exponent positions.

    With exponents sorted ascending, write last_k / first_k for the last
    and first positions (1-based) whose exponent equals the k-th.  The
    count is a unit factor p^last_k - p^(k-1) per position, counting
    invertible choices among factors of equal exponent, times two powers
    of p for the homomorphisms into higher- and lower-exponent factors
    ("Automorphisms of finite abelian groups", Amer. Math. Monthly 114,
    2007).
    """
    p = shape.p
    exps = shape.exponents
    n = len(exps)
    last, first = _positions(exps)
    units = prod(p ** last[k] - p**k for k in range(n))
    into_higher = prod((p**e) ** (n - lk) for e, lk in zip(exps, last))
    into_lower = prod((p ** (e - 1)) ** (n - fk + 1) for e, fk in zip(exps, first))
    return units * into_higher * into_lower


def hillar_rhea_valuation_parts(shape: PGroupShape) -> ValuationParts:
    """The exponents of p in the two position products of
    :func:`hillar_rhea_aut_order`: d = sum_i e_i (n - last_i) from the maps
    into higher-exponent factors, c = sum_i (e_i - 1) (n - first_i + 1)
    from those into lower ones."""
    exps = shape.exponents
    n = len(exps)
    last, first = _positions(exps)
    d = sum(e * (n - lk) for e, lk in zip(exps, last))
    c = sum((e - 1) * (n - fk + 1) for e, fk in zip(exps, first))
    return ValuationParts(n=n, d=d, c=c)


def _positions(exps: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """last_k and first_k (1-based) for each position k of the ascending ``exps``."""
    return ([bisect_right(exps, e) for e in exps],
            [bisect_left(exps, e) + 1 for e in exps])


def bfs_subgroup(generators, moduli) -> set[tuple[int, ...]]:
    """The subgroup of Z_{m_1} x ... x Z_{m_t} generated, by closure under
    addition from zero."""
    gens = [tuple(g) for g in generators]
    zero = (0,) * len(moduli)
    seen = {zero}
    queue = [zero]
    for x in queue:
        for g in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def bfs_closure(generators, moduli) -> int:
    """Order of the subgroup generated, by closure under addition from zero."""
    return len(bfs_subgroup(generators, moduli))


def image_slots(moduli) -> list[list[tuple[int, ...]]]:
    """For each i, the elements of Z_{m_1} x ... x Z_{m_t} killed by m_i,
    filtered from all of them: the images the i-th generator may take."""
    elements = list(product(*(range(m) for m in moduli)))
    return [[g for g in elements if all(c * mi % m == 0 for c, m in zip(g, moduli))]
            for mi in moduli]


def naive_automorphism_count(moduli) -> int:
    """|Aut(Z_{m_1} x ... x Z_{m_t})| from every endomorphism's image tuple,
    one breadth-first closure each.

    A tuple defines an endomorphism when its i-th image is killed by m_i,
    and an automorphism when the images generate all of G.
    """
    size = prod(moduli)
    return sum(bfs_closure(images, moduli) == size
               for images in product(*image_slots(moduli)))


def invariant_factors(moduli) -> list[int]:
    """d_1 | d_2 | ... with Z_{d_1} x Z_{d_2} x ... isomorphic to the product
    of the Z_m: replace a pair (m_i, m_j), i < j, by (gcd, lcm) until each
    divides the next, then drop the 1s."""
    ms = list(moduli)
    while True:
        pair = next(((i, j) for i in range(len(ms)) for j in range(i + 1, len(ms))
                     if ms[j] % ms[i]), None)
        if pair is None:
            return [m for m in ms if m > 1]
        i, j = pair
        ms[i], ms[j] = gcd(ms[i], ms[j]), lcm(ms[i], ms[j])


def groups_of_order(order: int) -> Iterator[GroupShape]:
    """Every abelian group of order ``order``, one per isomorphism class, in
    the sweep's order: primes ascending, the partition of the largest prime
    varying fastest."""
    per_prime = [[PGroupShape(p, exps) for exps in partitions(a)]
                 for p, a in sorted(factorize(order).items())]
    for blocks in product(*per_prime):
        yield GroupShape(blocks)


def sweep(max_order: int) -> Iterator[tuple[int, tuple[PGroupShape, ...], int]]:
    """(order, blocks, |Aut|) per group of order <= ``max_order``, as enumerate prints."""
    return ((n, *g) for n, f in factorizations_up_to(max_order) for g in _groups(False, f))


def pgroup_records(max_order: int) -> Iterator[tuple[PGroupShape, int]]:
    """(block, |Aut|) per group of prime-power order <= ``max_order``, as verify checks."""
    return ((block, aut) for _, f in factorizations_up_to(max_order) if len(f) == 1
            for (block,), aut in _groups(False, f))


def reference_atlas(max_order: int) -> dict[Fraction, GroupShape]:
    """Ratio -> first witness, one order and one group at a time."""
    atlas: dict[Fraction, GroupShape] = {}
    for order in range(1, max_order + 1):
        for group in groups_of_order(order):
            r = Fraction(prod(aut_order_p(f) for f in group.factors), order)
            atlas.setdefault(r, group)
    return atlas


def screen_false_proofs(max_order: int) -> list[tuple[Fraction, GroupShape]]:
    """Ratios that ``screen`` refuses although a group realizes them.

    Every ratio of a group of order <= max_order is screened, with its first
    witness, and so is each named witness that makes a screen tight: Z1,
    Z2, Z2^2, Z2^3, Z2 x Z_q and Z2^2 x Z_q for q in 3, 7 and 11, and Z_b
    for the cyclic numbers b (gcd(b, phi(b)) = 1) below 600 and a few
    larger ones.  A named witness whose ratio is not the one stated here is
    returned as well, with the stated ratio.  An empty list is a pass.
    """
    false = [(r, g) for r, g in ratio_atlas(max_order).items() if screen(r) is not None]
    named = [([], 1), ([2], Fraction(1, 2)), ([2, 2], Fraction(3, 2)),
             ([2, 2, 2], 21)]
    for q in (3, 7, 11):
        named += [([2, q], Fraction(q - 1, 2 * q)), ([2, 2, q], Fraction(3 * (q - 1), 2 * q))]
    for b in [*range(1, 600), 5865, 10007]:  # 5865 = 3 * 5 * 17 * 23
        phi = sum(gcd(k, b) == 1 for k in range(1, b + 1))
        if gcd(b, phi) == 1:
            named.append(([b], Fraction(phi, b)))
    for moduli, stated in named:
        group = canonicalize(moduli)
        if ratio(group) != stated or screen(stated) is not None:
            false.append((Fraction(stated), group))
    return false


def large_prime_exceptions(max_order: int) -> list[GroupShape]:
    """Groups of order <= max_order whose largest prime p has p^2 > order but
    does not divide the reduced denominator of the ratio: the exceptions to
    the large-prime lemma of the search module, found with this module's own
    enumerator and ``aut_order_p``.  An empty list is a pass."""
    exceptions = []
    for order in range(2, max_order + 1):
        p = max(factorize(order))
        if p * p > order:
            for group in groups_of_order(order):
                aut = prod(aut_order_p(f) for f in group.factors)
                if order // gcd(aut, order) % p:
                    exceptions.append(group)
    return exceptions


def package_imports(module: ModuleType) -> set[tuple[str, str | None]]:
    """(module, name) for each import in ``module``'s source that reaches
    into the package, relative (``.arith``) or by name (``abelianaut``)."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            imports.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.update((alias.name, None) for alias in node.names)
    return {(source, name) for source, name in imports
            if source.startswith((".", "abelianaut"))}

"""Brute-force automorphism counting for small abelian p-groups.

The count comes straight from the definition.  An endomorphism of
Z_{p^e_1} x ... x Z_{p^e_n} is fixed by choosing an image for each
canonical generator, and any choice works as long as the i-th image is
killed by p^e_i; the endomorphism is an automorphism exactly when the
images generate the whole group, because on a finite group a surjective
endomorphism is already bijective.  So: enumerate the image tuples, keep
the ones whose subgroup closure is everything, and count.

The tuples are counted forward, one slot at a time.  Before slot i the
count maps each prefix subgroup H, generated by images for slots
0, ..., i - 1, to the number of those image prefixes that generate it;
it starts at {0}, with one way.  One routine, :func:`_extend`, grows H
by one generator g: it walks the cosets H + j*g for j = 1, ..., k, where
k = min{k >= 1 : k*g in H}, and their union is <H, g>.  Two facts on k
serve every step below.

- The cosets H + j*g for 0 <= j < k are pairwise disjoint: if
  H + i*g = H + j*g with 0 <= i < j < k, then (j - i)*g is in H with
  0 < j - i < k, against the choice of k.  So |<H, g>| = |H| * k.
- The set {j in Z : j*g in H} is closed under sums and negation, so it is
  the subgroup kZ.  It contains |G| = p^a, because |G|*g = 0 is in H.  So
  k divides p^a and is a power of p.

Each level is built per subgroup and per class of cosets.  Slot i is
G[p^e_i], the elements killed by p^e_i; the exponents ascend, so slot j
lies in slot i for j < i, and H, generated by images from those slots,
lies in slot i, which is a subgroup.  Hence each coset g + H of a g in
slot i lies in slot i and has |H| elements, the cosets partition the
slot, and every member g + h gives the same closure, since
<H, g + h> = <H, g>: each side contains the other's generators.

More cosets than one close alike: <H, j*g> = <H, g> whenever p does not
divide j.  Proof: k is a power of p, so j is a unit mod k; choose j' with
j*j' = 1 (mod k).  Then g = j'*(j*g) - (j*j' - 1)*g, and (j*j' - 1)*g is
in H, since k divides j*j' - 1.  So g lies in <H, j*g>, and j*g lies in
<H, g>.  Call H + x and H + y alike when H + x = H + j*y for some j prime
to p.  This is an equivalence: j = 1 gives reflexivity; with j' the
inverse of j modulo the k of y, j'*x - y = j'*(x - j*y) + (j*j' - 1)*y is
in H, which gives symmetry; and x - i*j*z = (x - j*y) + j*(y - i*z) gives
transitivity.  By the proof, alike cosets close alike.
The class of H + g is the set of cosets H + j*g for 1 <= j <= k with p
not dividing j, as j mod k covers every residue and H + k*g = H; by the
first fact those cosets are distinct, so there are phi(k) = k - k // p of
them: H alone when k == 1, and k - k/p cosets when k > 1.  So for each H
the count walks the slot, and each g whose coset no earlier class covers
starts a class: it closes <H, g> once, marks the class's cosets covered
from the cosets it walked, and adds ways * |H| * phi(k) to the entry for
<H, g>.

At the last slot nothing is built and no multiple of g is walked.  For
each H of the last level let q = |G| / |H|.  A candidate g completes the
tuple exactly when q == 1, or when q > 1 and (q/p)*g is not in H.
Proof: g completes exactly when |H| * k = |G|, that is, when k = q.

- By the first fact the cosets H + j*g for 0 <= j < k lie disjoint in G,
  so |H| * k is at most |G|, that is, k <= q.  By Lagrange, q is a power
  of p, as k is by the second.
- If q == 1, then k = 1 = q, and every candidate completes.  Otherwise
  q/p is an integer, and a power of p that is at most q fails to divide
  q/p exactly when it equals q.  So k = q exactly when k does not divide
  q/p, that is, exactly when (q/p)*g is not in H.

This is counting on cosets and nothing more: no formula for |Aut|, no
Frattini argument and no rank argument.  In particular q == 1 cannot
arise through :func:`count_automorphisms`, since n - 1 images cannot
generate a group of rank n, but the branch stays rather than lean on that.
Each H of the last level is probed once; each j = q/p scales the slot once.

Nothing here shares logic with the closed-form path in :mod:`.core` --
no formula, no matrix bookkeeping -- which is what makes agreement
between the two paths meaningful evidence.  Of a block the count reads
its prime and its ascending exponents and nothing else: |G| and the rank
come from the moduli p^e_i, the prime is trusted as ``PGroupShape``
validates it, and the package's one import here is the integer rule
``is_positive_int``.  The candidate space is |G|^rank tuples, and an
explicit budget on that number guards every call, although the count
closes far fewer subgroups: one per class of alike cosets of each
distinct prefix subgroup.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from itertools import chain, product
from math import gcd, prod
from operator import add, mod

from .arith import is_positive_int

# One residue per cyclic factor, coordinate i in [0, p^e_i).
ElementVector = tuple[int, ...]

# Default cap on |G|^rank, the candidate-tuple count, for one call.
DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The candidate space is too large; skip the shape, never estimate."""


def _add(u: ElementVector, v: ElementVector, moduli: Sequence[int]) -> ElementVector:
    # tuple() of a map allocates ten slots and shrinks: each sum is a fresh block,
    # and dead sums fill the tuple free lists (about 300 KB); a list sizes it exactly.
    return tuple(list(map(mod, map(add, u, v), moduli)))


def _extend(
    subgroup: Collection[ElementVector], g: ElementVector, moduli: Sequence[int]
) -> list[Collection[ElementVector]]:
    """The cosets H + j*g for j = 1, ..., k, where k = min{k >= 1 : k*g in H}.

    The last of them is H itself.  They are pairwise disjoint and their union
    is closed under adding g, so it is <H, g>, of order |H| * k.
    """
    cosets: list[Collection[ElementVector]] = []
    m = g
    while m not in subgroup:
        cosets.append([_add(h, m, moduli) for h in subgroup])
        m = _add(m, g, moduli)
    cosets.append(subgroup)
    return cosets


def count_automorphisms(shape, budget: int = DEFAULT_BUDGET) -> int:
    """|Aut(G)| by direct enumeration of generator-image tuples.

    ``shape`` gives G = Z_{p^e_1} x ... x Z_{p^e_n} by two fields and no
    more: the prime ``shape.p`` and the ascending ``shape.exponents``
    e_1 <= ... <= e_n, as a ``PGroupShape`` holds them.
    ``budget`` (an int >= 1) caps |G|^rank, the raw candidate-tuple count.
    Raises :class:`BudgetExceeded` when |G|^rank exceeds it; the caller is
    expected to skip the shape, not to approximate.  The count, one slot
    level at a time, closes far fewer subgroups than the budget meters.
    """
    if not is_positive_int(budget):
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    p = shape.p
    moduli = [p**e for e in shape.exponents]
    size, n = prod(moduli), len(moduli)
    if size**n > budget:
        raise BudgetExceeded(
            f"|G|^rank = {size}^{n} exceeds the budget of {budget} candidate tuples"
        )
    # Slot i admits exactly the elements killed by m_i = p^e_i: those whose
    # j-th coordinate is a multiple of m_j / gcd(m_j, m_i).
    slots = [list(product(*(range(0, m, m // gcd(m, mi)) for m in moduli)))
             for mi in moduli]
    last = slots[-1]
    # the last slot is G itself: kept subgroups hold its tuples, not copies;
    # a cyclic G has no slot before the last, so it builds no subgroup
    canon = {g: g for g in last} if n > 1 else {}
    # level: each subgroup H that images for the slots so far can generate,
    # with the number of image prefixes that generate it
    level: dict[frozenset[ElementVector], int] = {frozenset({(0,) * n}): 1}
    for slot in slots[:-1]:
        nxt: dict[frozenset[ElementVector], int] = {}
        for prefix, ways in level.items():
            # one closure per class of cosets H + j*g with p not dividing j,
            # each of its phi(k) = k - k // p cosets counted |H| times
            covered: set[ElementVector] = set()
            for g in slot:
                if g not in covered:
                    cosets = _extend(prefix, g, moduli)
                    k = len(cosets)
                    covered.update(*[c for j, c in enumerate(cosets, 1) if j % p])
                    key = frozenset(map(canon.__getitem__, chain.from_iterable(cosets)))
                    nxt[key] = nxt.get(key, 0) + ways * len(prefix) * (k - k // p)
        level = nxt
    multiples: dict[int, list[ElementVector]] = {}  # j -> [j*g for g in last]
    count = 0
    for prefix, ways in level.items():
        q = size // len(prefix)
        if q == 1:
            count += ways * len(last)
            continue
        j = q // p
        if j not in multiples:
            # last is the product of range(m) over the moduli, so this
            # lists j*g for each g of last
            multiples[j] = list(product(*([c * j % m for c in range(m)] for m in moduli)))
        count += ways * (len(last) - sum(map(prefix.__contains__, multiples[j])))
    return count

"""Expected answers computed without posheaf.

A poset is given here as a dict mapping each element to the set of
elements strictly below it.  Everything is exact: rationals are
`Fraction`s, GF(p) entries are Python ints reduced mod p.
"""

from __future__ import annotations

from fractions import Fraction


def strictly_below(elements, covers) -> dict:
    """Strict-below sets from Hasse cover pairs (lower, upper)."""
    lower = {e: [] for e in elements}
    for u, v in covers:
        lower[v].append(u)
    below = {}

    def visit(e):
        if e not in below:
            acc = set()
            for u in lower[e]:
                acc.add(u)
                acc |= visit(u)
            below[e] = acc
        return below[e]

    for e in elements:
        visit(e)
    return below


def document_poset(doc) -> dict:
    """Strict-below sets of the poset of a posheaf JSON document."""
    return strictly_below(doc["elements"], [tuple(c) for c in doc["covers"]])


def topological(below: dict) -> list:
    """Elements ordered so that everything below e comes before e."""
    return sorted(below, key=lambda e: (len(below[e]), e))


def chain_counts(below: dict, weight=None) -> list[int]:
    """Number of chains with k+1 elements, for k = 0, 1, ...

    Dynamic programming over the order: the chains with top e and k+1
    elements extend the chains with k elements whose top lies below e.
    With `weight`, a chain counts weight[top] times, which gives the
    dimensions of the Roos cochain groups of a sheaf with those stalks.
    """
    ending = {}  # e -> counts of chains with top e, by length
    totals: list[int] = []
    for e in topological(below):
        counts = [1]
        for u in below[e]:
            for k, c in enumerate(ending[u]):
                if k + 1 == len(counts):
                    counts.append(0)
                counts[k + 1] += c
        ending[e] = counts
        w = 1 if weight is None else weight[e]
        for k, c in enumerate(counts):
            if k == len(totals):
                totals.append(0)
            totals[k] += w * c
    while totals and totals[-1] == 0:
        totals.pop()
    return totals


def euler_characteristic(counts) -> int:
    return sum((-1) ** k * c for k, c in enumerate(counts))


def rank(rows, p=None) -> int:
    """Rank of a small dense matrix over GF(p), or over Q when p is None."""
    a = [[Fraction(x) for x in r] if p is None else [x % p for x in r] for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p) if p is not None else 1 / a[r][c]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                if p is not None:
                    a[i] = [x % p for x in a[i]]
        r += 1
    return r


def reduced_betti(below: dict, subset, p=None) -> list[int]:
    """Reduced Betti numbers of the order complex of a subposet.

    Computed from the augmented simplicial chain complex; the empty
    subposet gives [] (it is handled by the caller).
    """
    subset = set(subset)
    order = [e for e in topological(below) if e in subset]
    levels: list[list[tuple]] = []

    def extend(chain):
        k = len(chain) - 1
        if k == len(levels):
            levels.append([])
        levels[k].append(chain)
        for v in order:
            if chain[-1] in below[v]:
                extend(chain + (v,))

    for e in order:
        extend((e,))
    index = [{c: i for i, c in enumerate(level)} for level in levels]
    # ranks[k] is the rank of the boundary out of degree k; degree 0
    # maps onto the augmentation
    ranks = [1 if levels else 0]
    for k in range(1, len(levels)):
        mat = [[0] * len(levels[k]) for _ in levels[k - 1]]
        for j, chain in enumerate(levels[k]):
            for i in range(len(chain)):
                mat[index[k - 1][chain[:i] + chain[i + 1:]]][j] += (-1) ** i
        ranks.append(rank(mat, p))
    ranks.append(0)
    return [len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(levels)]


def trim(betti) -> list[int]:
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def predicted_betti(below: dict, summands, p=None) -> list[int]:
    """Sheaf cohomology of a direct sum of the generator's summands.

    `summands` holds (kind, s, w): kind "down" is the sheaf with stalk
    F^w on the closed downset of s and identity maps inside; kind
    "sky" is the skyscraper F^w at s.  A closed downset has a top, so it
    contributes w in degree 0.  A skyscraper contributes w in degree 0
    when nothing lies below s, and otherwise w times the reduced Betti
    numbers of the strict downset of s, shifted up by one degree.
    """
    total: list[int] = [0]
    for kind, s, w in summands:
        if kind == "down" or not below[s]:
            total[0] += w
            continue
        for k, b in enumerate(reduced_betti(below, below[s], p)):
            while len(total) <= k + 1:
                total.append(0)
            total[k + 1] += w * b
    return trim(total)

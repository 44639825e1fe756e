"""Seeded random posets and sheaves, and the references that the tests
compare the library against.

Random sheaves are gauged direct sums of single-point-support and
downset-support sheaves: those summands commute by construction, and
conjugating every stalk by a random invertible matrix preserves
commutativity while scrambling the maps.

The references that no library code calls live here, out of the
library: dense rank and Smith-form references, an isomorphism search
for small posets, subposets rebuilt from scratch, global sections as a
kernel (an H^0 that builds no cochain complex), sheaves supported on a
set of elements, and the dense matrix helpers `from_rows`, `zeros` and
`apply`.  `chain_document` writes a deep chain as a document.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from posheaf.exact_linalg import GF, QQ, Matrix, PrimeField, compose, kernel_basis
from posheaf.poset import Poset, build_poset, leq
from posheaf.sheaf import Sheaf, SheavedSpace


def random_poset(rng: random.Random, n: int, edge_prob: float | None = None) -> Poset:
    """Random n-element poset; labels e00..e{n-1} in a linear extension."""
    labels = [f"e{i:02d}" for i in range(n)]
    if edge_prob is None:
        edge_prob = min(0.7, 1.6 / max(n - 1, 1))
    above = [set() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                above[i].add(j)
                above[i] |= above[j]
    covers = []
    for i in range(n):
        for j in above[i]:
            if not any(j in above[k] for k in above[i] if k != j):
                covers.append((labels[i], labels[j]))
    return build_poset(labels, covers)


def invert(m: Matrix) -> Matrix:
    """Inverse of a small invertible matrix, by augmented elimination."""
    n = m.rows
    ring = m.ring
    p = ring.p if isinstance(ring, PrimeField) else None
    a = [list(m.entries[i]) + [ring.coerce(1 if j == i else 0) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], p - 2, p) if p is not None else 1 / Fraction(a[c][c])
        a[c] = [(x * inv) % p if p is not None else x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                if p is not None:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
                else:
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return Matrix(ring, n, n, [row[n:] for row in a])


def reference_rank(rows, p: int | None = None) -> int:
    """Rank of dense integer rows over Q (p None) or GF(p).

    Plain row-echelon elimination, column by column with the first
    nonzero pivot: a slow reference for the library's sparse kernel.
    """
    a = [[Fraction(x) if p is None else int(x) % p for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c] if p is None else pow(a[r][c], -1, p)
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y if p is None else (x - f * y) % p
                        for x, y in zip(a[i], a[r])]
        r += 1
    return r


def reference_invariant_factors(rows) -> tuple:
    """Smith invariant factors of small integer rows, from the gcds
    Delta_k of all k x k minors: d_k = Delta_k / Delta_(k-1)."""
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)) if m[0][j])

    factors, prev = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        g = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(range(len(rows[0])), k):
                g = math.gcd(g, det([[r[j] for j in cs] for r in rs]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def random_invertible(rng: random.Random, ring, n: int) -> Matrix:
    """Product of random elementary row operations applied to identity."""
    rows = [[ring.coerce(1 if j == i else 0) for j in range(n)] for i in range(n)]
    if n < 2:
        return Matrix(ring, n, n, rows)
    p = ring.p if isinstance(ring, PrimeField) else None
    for _ in range(2 * n + 1):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = ring.coerce(rng.choice([-2, -1, 1, 2]))
        rows[i] = [(x + f * y) % p if p is not None else x + f * y
                   for x, y in zip(rows[i], rows[j])]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return Matrix(ring, n, n, rows)


def random_sheaf(
    rng: random.Random,
    poset: Poset,
    ring,
    max_dim: int = 3,
    summands: int | None = None,
    gauge: bool = True,
) -> Sheaf:
    """Random commutative sheaf with stalk dimensions <= max_dim.

    Summands are downset-supported sheaves (identity maps inside the
    support) and skyscrapers; a candidate summand is dropped when it
    would push some stalk over max_dim, so zero stalks occur naturally.
    """
    n = len(poset.elements)
    if summands is None:
        summands = max(1, rng.randint(n // 2, n))
    dims = {e: 0 for e in poset.elements}
    chosen = []  # (support frozenset, width)
    for _ in range(summands):
        s = rng.choice(poset.elements)
        w = rng.randint(1, 2)
        if rng.random() < 0.25:
            support = frozenset([s])  # skyscraper
        else:
            support = frozenset(poset.strictly_below(s)) | {s}
        if any(dims[e] + w > max_dim for e in support):
            continue
        for e in support:
            dims[e] += w
        chosen.append((support, w))
    maps = {}
    for (u, v) in poset.covers:
        rows = [[ring.coerce(0)] * dims[u] for _ in range(dims[v])]
        roff = 0
        for (support, w) in chosen:
            coff = 0
            for (support2, w2) in chosen:
                if support2 is support and u in support and v in support:
                    for i in range(w):
                        rows[roff + i][coff + i] = ring.coerce(1)
                if u in support2:
                    coff += w2
            if v in support:
                roff += w
        maps[(u, v)] = Matrix(ring, dims[v], dims[u], rows)
    sheaf = Sheaf(poset, ring, dims, maps)
    return gauged(rng, sheaf) if gauge else sheaf


def gauged(rng: random.Random, sheaf: Sheaf) -> Sheaf:
    """An isomorphic sheaf: every stalk conjugated by a random invertible
    matrix, which keeps commutativity and scrambles the maps."""
    p, ring, dims, maps = sheaf.base, sheaf.ring, sheaf.stalk_dim, sheaf.cover_maps
    g = {e: random_invertible(rng, ring, dims[e]) for e in p.elements}
    g_inv = {e: invert(m) for e, m in g.items()}
    return Sheaf(p, ring, dims, {
        (u, v): compose(compose(g[v], maps[(u, v)]), g_inv[u]) for (u, v) in p.covers
    })


def random_space(rng, poset, ring, **kw) -> SheavedSpace:
    return SheavedSpace(poset, random_sheaf(rng, poset, ring, **kw))


def rescaled(rng: random.Random, sp: SheavedSpace) -> SheavedSpace:
    """An isomorphic space over Q whose maps have non-integral entries:
    every stalk basis vector is scaled by 2, -3 or 1/2."""
    f = sp.sheaf
    d = {e: [rng.choice((2, -3, Fraction(1, 2))) for _ in range(n)] for e, n in f.stalk_dim.items()}
    maps = {(u, v): Matrix(QQ, m.rows, m.cols,
                           [[Fraction(x) * d[v][i] / d[u][j] for j, x in enumerate(row)]
                            for i, row in enumerate(m.entries)])
            for (u, v), m in f.cover_maps.items()}
    return SheavedSpace(sp.poset, Sheaf(sp.poset, QQ, f.stalk_dim, maps))


def gauged_suite(seed: int, count: int, sizes=(12, 18), edge_prob: float = 0.25):
    """`count` seeded spaces on random posets: a gauged random sheaf over
    GF(7), or one over Q that is also rescaled to non-integral maps."""
    rng = random.Random(seed)
    for _ in range(count):
        p = random_poset(rng, rng.randint(*sizes), edge_prob)
        ring = rng.choice([QQ, GF(7)])
        sp = random_space(rng, p, ring)
        yield rescaled(rng, sp) if ring == QQ else sp


def zigzag_poset(dual=False):
    """A beat-free poset in which the strict downset of s (its upset if
    `dual`) is a zigzag path, which is contractible: x duplicates s's
    covers and y ties the path ends together, so every element has
    branching above and below."""
    covers = [
        ("m1", "t1"), ("m2", "t1"), ("m2", "t2"), ("m3", "t2"),
        ("t1", "s"), ("t2", "s"), ("t1", "x"), ("t2", "x"),
        ("m1", "y"), ("m3", "y"),
    ]
    if dual:
        covers = [(v, u) for u, v in covers]
    return build_poset(["m1", "m2", "m3", "t1", "t2", "s", "x", "y"], covers)


def rebuilt_subposet(p: Poset, keep) -> Poset:
    """The subposet of p on `keep`, rebuilt and validated by `build_poset`:
    u < v is an induced cover iff no kept element lies strictly between.
    The reference for subposets derived by the bridge rule."""
    keep = set(keep)
    sub = [e for e in p.elements if e in keep]
    above = {e: p.strictly_above(e) & keep for e in sub}
    below = {e: p.strictly_below(e) & keep for e in sub}
    return build_poset(sub, {(u, v) for u in sub for v in above[u]
                             if above[u].isdisjoint(below[v])})


def chain_document(n: int, rank: int = 2, field: str = "GF:7") -> dict:
    """The document of the n-element chain c0000 < c0001 < ... with the
    constant sheaf of `rank` over `field`: a deep poset whose strict
    closures hold n(n - 1)/2 elements in all."""
    names = [f"c{i:04d}" for i in range(n)]
    eye = [["1" if i == j else "0" for j in range(rank)] for i in range(rank)]
    return {"field": field, "elements": names,
            "covers": [[u, v] for u, v in zip(names, names[1:])],
            "sheaf": {"stalks": dict.fromkeys(names, rank),
                      "maps": {f"{u}->{v}": eye for u, v in zip(names, names[1:])}}}


def random_ideal(rng: random.Random, poset: Poset) -> set:
    """Random lower order ideal (downward closure of a random subset)."""
    seeds = [e for e in poset.elements if rng.random() < 0.4]
    ideal = set()
    for s in seeds:
        ideal.add(s)
        ideal |= set(poset.strictly_below(s))
    return ideal


def from_rows(ring, rows) -> Matrix:
    """A matrix from dense rows, as many columns as the first row."""
    return Matrix(ring, len(rows), len(rows[0]) if rows else 0, rows)


def zeros(ring, rows: int, cols: int) -> Matrix:
    return Matrix.from_sparse(ring, rows, cols, [{}] * rows)


def apply(m: Matrix, vec) -> tuple:
    """m times the column vector vec, in m's ring."""
    return tuple(m.ring.coerce(sum(a * vec[j] for j, a in row.items())) for row in m.sparse)


def supported_sheaf(p: Poset, support, ring, w: int = 1) -> Sheaf:
    """Stalk of dimension w on `support` and 0 elsewhere, identities
    between elements of the support and zero maps otherwise.  It
    commutes when the support holds every element between two of its
    elements, as a strict downset, a lower ideal or one element does."""
    dims = {e: w if e in support else 0 for e in p.elements}
    eye = Matrix.identity(ring, w)
    return Sheaf(p, ring, dims, {(u, v): eye if u in support and v in support
                                 else zeros(ring, dims[v], dims[u]) for (u, v) in p.covers})


def global_sections(sp: SheavedSpace) -> list:
    """A basis of the global sections: the kernel of the equations
    res(x_u) - x_v = 0, one block row per cover (u, v), on the product of
    the stalks in element order."""
    f, p = sp.sheaf, sp.poset
    offsets = dict(zip(p.elements, itertools.accumulate(
        (f.stalk_dim[e] for e in p.elements), initial=0)))
    rows = []
    for (u, v) in sorted(p.covers):
        for i, mrow in enumerate(f.cover_maps[(u, v)].sparse):
            # u != v, so the two stalk blocks of the row are disjoint
            rows.append({offsets[u] + j: x for j, x in mrow.items()} | {offsets[v] + i: -1})
    return kernel_basis(Matrix.from_sparse(f.ring, len(rows), sum(f.stalk_dim.values()), rows))


# backtracking is exponential: the search is for small posets only
ISO_MAX_ELEMENTS = 24


def posets_isomorphic(p: Poset, q: Poset) -> dict | None:
    """An order isomorphism p -> q, or None.

    Backtracking over the bijections that keep a per-element invariant
    (cover counts and closure sizes, of the element and of its covers),
    rarest invariant first, accepting an image when the order and its
    reverse agree with every element already mapped.  Raises ValueError
    on posets over ISO_MAX_ELEMENTS elements.
    """
    if max(len(p), len(q)) > ISO_MAX_ELEMENTS:
        raise ValueError(f"isomorphism search limited to {ISO_MAX_ELEMENTS} elements")

    def invariant(r):
        local = {e: (len(r.lower_covers(e)), len(r.upper_covers(e)),
                     len(r.strictly_below(e)), len(r.strictly_above(e))) for e in r.elements}
        return {e: (local[e], tuple(sorted(local[u] for u in r.lower_covers(e))),
                    tuple(sorted(local[v] for v in r.upper_covers(e)))) for e in r.elements}

    sp, sq = invariant(p), invariant(q)
    if sorted(sp.values()) != sorted(sq.values()):
        return None
    freq = Counter(sp.values())
    order = sorted(p.elements, key=lambda e: (freq[sp[e]], e))
    mapping = {}

    def search(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        for f in q.elements:
            if sq[f] == sp[e] and f not in mapping.values() and all(
                    leq(p, u, e) == leq(q, fu, f) and leq(p, e, u) == leq(q, f, fu)
                    for u, fu in mapping.items()):
                mapping[e] = f
                if search(i + 1):
                    return True
                del mapping[e]
        return False

    return mapping if search(0) else None

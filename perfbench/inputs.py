"""Input documents for the workloads, built without posheaf.

Bing's house is a fixed complex; only the random batch depends on the
seed.  Every document is in posheaf's JSON format and carries an
explicit sheaf block.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from oracles import strictly_below

# -- Bing's house -----------------------------------------------------------

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _add(p, *vs):
    return tuple(sum(c) for c in zip(p, *vs))


def house_squares():
    """Unit squares (corner, first axis, second axis) of the house.

    A 4 x 3 x 2 box with a middle floor at z = 1.  The upper room is
    entered by a tunnel rising through the lower room from a hole in
    the bottom face at cell (1, 1); the lower room by a tunnel falling
    through the upper room from a hole in the top face at cell (2, 1).
    Each tunnel carries a membrane out to the nearest outer wall.
    """
    sq = []
    for x in range(4):
        for y in range(3):
            for z, hole in ((0, {(1, 1)}), (1, {(1, 1), (2, 1)}), (2, {(2, 1)})):
                if (x, y) not in hole:
                    sq.append(((x, y, z), X, Y))
    for z in range(2):
        sq += [((x, y, z), Y, Z) for x in (0, 4) for y in range(3)]
        sq += [((x, y, z), X, Z) for y in (0, 3) for x in range(4)]
    # tunnel walls, then the two membranes
    sq += [((1, 1, 0), Y, Z), ((2, 1, 0), Y, Z), ((1, 1, 0), X, Z), ((1, 2, 0), X, Z)]
    sq += [((2, 1, 1), Y, Z), ((3, 1, 1), Y, Z), ((2, 1, 1), X, Z), ((2, 2, 1), X, Z)]
    sq += [((0, 1, 0), X, Z), ((3, 1, 1), X, Z)]
    return sq


def house_triangles():
    """Each square is cut along the diagonal from its lowest corner."""
    name = "v{}{}{}".format
    tris = []
    for p, a, b in house_squares():
        far = _add(p, a, b)
        for t in ((p, _add(p, a), far), (p, far, _add(p, b))):
            tris.append(tuple(sorted(name(*v) for v in t)))
    return tris


def face_poset(triangles):
    """Elements (by dimension, then name) and covers of the face poset."""
    faces = set()
    for t in triangles:
        for mask in range(1, 8):
            faces.add(tuple(v for i, v in enumerate(t) if mask >> i & 1))
    ordered = sorted(faces, key=lambda f: (len(f), f))
    covers = [
        ("|".join(f[:i] + f[i + 1:]), "|".join(f))
        for f in ordered if len(f) > 1 for i in range(len(f))
    ]
    return ["|".join(f) for f in ordered], covers


def house_document(field: str, apexes: bool) -> dict:
    """The constant rank-1 sheaf on the face poset of the house.

    With `apexes`, two incomparable elements apexU and apexV sit above
    every triangle: the double cone on the house, still contractible.
    """
    tris = house_triangles()
    elements, covers = face_poset(tris)
    if apexes:
        tops = ["|".join(t) for t in sorted(set(tris))]
        for apex in ("apexU", "apexV"):
            elements.append(apex)
            covers += [(t, apex) for t in tops]
    covers.sort()
    return {
        "field": field,
        "elements": elements,
        "covers": [list(c) for c in covers],
        "sheaf": {
            "stalks": {e: 1 for e in sorted(elements)},
            "maps": {f"{u}->{v}": [["1"]] for u, v in covers},
        },
    }


# -- random batch -----------------------------------------------------------

BATCH_P = 7
MAX_DIM = 3


def _random_poset(rng, n):
    """n labelled elements in a linear extension; returns (elements, covers)."""
    labels = [f"e{i:02d}" for i in range(n)]
    prob = min(0.7, 1.6 / (n - 1))
    above = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < prob:
                above[i] |= {j} | above[j]
    covers = [
        (labels[i], labels[j])
        for i in range(n) for j in sorted(above[i])
        if not any(j in above[k] for k in above[i])
    ]
    return labels, covers


def _random_gauge(rng, n, p):
    """A random invertible n x n matrix and its inverse.

    Built from elementary operations with non-unit factors; the inverse
    undoes them in reverse, so no elimination is needed.
    """
    one = 1 if p else Fraction(1)
    g = [[one if i == j else 0 * one for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    red = (lambda x: x % p) if p else (lambda x: x)
    for _ in range(2 * n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 2, 3))
        g[i] = [red(x + f * y) for x, y in zip(g[i], g[j])]  # row i += f row j
        for row in ginv:  # column j -= f column i
            row[j] = red(row[j] - f * row[i])
    for i in range(n):
        c = rng.choice((2, 3, 5) if p else (2, -3, Fraction(1, 2)))
        cinv = pow(c, -1, p) if p else 1 / Fraction(c)
        g[i] = [red(c * x) for x in g[i]]
        for row in ginv:
            row[i] = red(row[i] * cinv)
    return g, ginv


def _matmul(a, b, p):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % p for x in row] for row in out] if p else out


def random_space(rng, field_p):
    """One random sheaved space and the direct sum it was built from.

    Returns (document, summands) where summands are (kind, element,
    width) for kind "down" (closed downset, identity maps) or "sky"
    (skyscraper).
    """
    n = rng.randint(8, 14)
    elements, covers = _random_poset(rng, n)
    below = strictly_below(elements, covers)
    dims = {e: 0 for e in elements}
    summands = []
    for _ in range(rng.randint(n // 2, n)):
        s = rng.choice(elements)
        w = rng.randint(1, 2)
        kind = "sky" if rng.random() < 0.3 else "down"
        support = {s} if kind == "sky" else below[s] | {s}
        if any(dims[e] + w > MAX_DIM for e in support):
            continue
        for e in support:
            dims[e] += w
        summands.append((kind, s, w, support))
    # basis of each stalk: the summands containing it, in order
    offset = {e: {} for e in elements}
    for k, (_, _, w, support) in enumerate(summands):
        for e in support:
            offset[e][k] = sum(summands[j][2] for j in offset[e])
    gauges = {e: _random_gauge(rng, dims[e], field_p) for e in elements}
    maps = {}
    for u, v in covers:
        m = [[0] * dims[u] for _ in range(dims[v])]
        for k, (kind, _, w, support) in enumerate(summands):
            if kind == "down" and u in support and v in support:
                for i in range(w):
                    m[offset[v][k] + i][offset[u][k] + i] = 1
        if dims[u] and dims[v]:
            m = _matmul(_matmul(gauges[v][0], m, field_p), gauges[u][1], field_p)
        maps[f"{u}->{v}"] = [[str(x) for x in row] for row in m]
    doc = {
        "field": f"GF:{field_p}" if field_p else "Q",
        "elements": elements,
        "covers": [list(c) for c in covers],
        "sheaf": {"stalks": dims, "maps": maps},
    }
    return doc, [(k, s, w) for k, s, w, _ in summands]


# The batch's spaces come from this fixed stream; the seed orders them.
# A batch of 600 spaces drawn from the seed itself cost 0.9x to 1.15x of
# its median from seed to seed (a few Q spaces take 0.1 to 0.7 s each),
# which alone takes most of the benchmark's bound of 0.25.
BATCH_STREAM = 0


def random_spaces(stream: int, size: int):
    """`size` spaces from `stream`: even positions over Q, odd over GF(7)."""
    rng = random.Random(stream)
    return [random_space(rng, BATCH_P if i % 2 else None) for i in range(size)]


def random_batch(seed: int, size: int):
    """The first `size` spaces of BATCH_STREAM, in an order from `seed`."""
    batch = random_spaces(BATCH_STREAM, size)
    random.Random(seed).shuffle(batch)
    return batch


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)

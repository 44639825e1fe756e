"""Example spaces for the tests.

The 4-point circle (minimal finite model of S^1), the path gadget whose
apex is removable by downset acyclicity but is not a beat, and a
triangulated Bing's house with two rooms: a contractible, non-collapsible
2-complex whose face poset plus two incomparable apexes has removable
non-beat vertices.
"""

from __future__ import annotations

from posheaf.poset import OrderComplex, Poset, build_poset


def four_point_circle() -> Poset:
    """Minimal elements a, b under maximal x, y; models the circle."""
    return build_poset(
        ["a", "b", "x", "y"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")],
    )


def circle_with_apex() -> Poset:
    """The 4-point circle with one apex above everything.

    The apex's downset is the whole circle, which is not acyclic, so no
    rule may remove it.
    """
    return build_poset(
        ["a", "b", "x", "y", "s"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("x", "s"), ("y", "s")],
    )


def p5_poset() -> Poset:
    """Face poset of a path with two edges: a - ab - b - bc - c."""
    return build_poset(
        ["a", "b", "c", "ab", "bc"],
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc")],
    )


def p5_gadget() -> Poset:
    """The path gadget plus an apex s over both edges.

    s has two lower covers, so it is not a downbeat; its strict downset
    is the whole path poset, whose order complex is acyclic.
    """
    return build_poset(
        ["a", "b", "c", "ab", "bc", "s"],
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("ab", "s"), ("bc", "s")],
    )


def _unit_squares():
    """Axis-aligned unit squares of the house, as 4-tuples of corners.

    Box [0,4] x [0,3] x [0,2] with a middle floor at z=1.  The upper
    room (z in [1,2]) is entered through a tunnel rising from a hole in
    the bottom face through the lower room (cell (1,1)); the lower room
    through a tunnel descending from a hole in the top face through
    the upper room (cell (2,1)).  Each tunnel carries a membrane wall
    out to the nearest outer wall, which keeps every edge in at least
    two faces.
    """
    sqs = []

    def horiz(x, y, z):
        sqs.append(((x, y, z), (x + 1, y, z), (x + 1, y + 1, z), (x, y + 1, z)))

    def wall_x(x, y, z):
        sqs.append(((x, y, z), (x, y + 1, z), (x, y + 1, z + 1), (x, y, z + 1)))

    def wall_y(x, y, z):
        sqs.append(((x, y, z), (x + 1, y, z), (x + 1, y, z + 1), (x, y, z + 1)))

    for x in range(4):
        for y in range(3):
            if (x, y) != (1, 1):
                horiz(x, y, 0)  # bottom; hole = mouth of tunnel A
            if (x, y) != (2, 1):
                horiz(x, y, 2)  # top; hole = mouth of tunnel B
            if (x, y) not in ((1, 1), (2, 1)):
                horiz(x, y, 1)  # middle floor; holes where tunnels open
    for y in range(3):
        for z in range(2):
            wall_x(0, y, z)
            wall_x(4, y, z)
    for x in range(4):
        for z in range(2):
            wall_y(x, 0, z)
            wall_y(x, 3, z)
    # tunnel A (serves the upper room): cell (1,1), z in [0,1]
    wall_x(1, 1, 0)
    wall_x(2, 1, 0)
    wall_y(1, 1, 0)
    wall_y(1, 2, 0)
    # tunnel B (serves the lower room): cell (2,1), z in [1,2]
    wall_x(2, 1, 1)
    wall_x(3, 1, 1)
    wall_y(2, 1, 1)
    wall_y(2, 2, 1)
    # membranes: tunnel A to the wall x=0, tunnel B to the wall x=4
    wall_y(0, 1, 0)
    wall_y(3, 1, 1)
    return sqs


def _vname(p) -> str:
    return "v{}{}{}".format(*p)


def bing_house_triangles() -> list[tuple[str, str, str]]:
    """Triangulation of the house: each square split along a diagonal."""
    tris = []
    for (a, b, c, d) in _unit_squares():
        tris.append((a, b, c))
        tris.append((a, c, d))
    return [tuple(sorted(_vname(p) for p in t)) for t in tris]


def simplicial_complex(top_simplices) -> OrderComplex:
    """Face closure of the given simplices, packaged for homology.

    The result reuses the chain-complex container: simplices are
    vertex-sorted tuples grouped by dimension, closed under faces.
    """
    levels: dict[int, set] = {}
    stack = [tuple(sorted(s)) for s in top_simplices]
    seen = set(stack)
    while stack:
        s = stack.pop()
        levels.setdefault(len(s) - 1, set()).add(s)
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            if f and f not in seen:
                seen.add(f)
                stack.append(f)
    out = [sorted(levels.get(d, ())) for d in range(max(levels, default=-1) + 1)]
    return OrderComplex(out)


def face_poset(top_simplices) -> Poset:
    """Face poset of a simplicial complex; covers are codimension-1."""
    k = simplicial_complex(top_simplices)
    names = {}
    elements = []
    for level in k.simplices:
        for s in level:
            names[s] = "|".join(s)
            elements.append(names[s])
    covers = []
    for d in range(1, len(k.simplices)):
        for s in k.simplices[d]:
            for i in range(len(s)):
                covers.append((names[s[:i] + s[i + 1:]], names[s]))
    return build_poset(elements, covers)


def bing_house_poset() -> Poset:
    return face_poset(bing_house_triangles())


def bing_house_with_apexes() -> Poset:
    """Face poset of the house plus two incomparable apexes above it.

    Neither apex is a beat (the house has many maximal faces), yet both
    have acyclic downsets, so the acyclic-downset rule removes them.
    """
    house = bing_house_poset()
    tops = [t for t in house.elements if not house.upper_covers(t)]
    elements = list(house.elements) + ["apexU", "apexV"]
    covers = list(house.covers)
    for t in tops:
        covers.append((t, "apexU"))
        covers.append((t, "apexV"))
    return build_poset(elements, covers)

"""Finite posets as validated Hasse diagrams.

Elements are opaque, sortable names; the cover relation is the
transitive reduction of the order.  :func:`build_poset` is the one way
to make a poset from names and covers: it validates the covers and
computes, once, the cover tables, a linear extension and the strict
up-closure of every element, all that a poset stores.  The cover tables
are the one record of its structure: its elements are their keys, its
covers and down-closures are read off them.  Posets are immutable after
construction, apart from the tables they compute on first use.  A
subposet needs no rebuild: :func:`_unlink`, the one code that edits
cover tables, takes one element out by the bridge rule, in place;
:func:`_subposet_without` reads the subposet off them, shrinking only
the up-closures of the elements below the removed ones.
:func:`induced_subposet` and the working subspace of
:mod:`posheaf.sheaf` call the two, so the library calls
:func:`build_poset` on documents only.

A poset's core is that of its constant sheaf
(:func:`posheaf.simplify.poset_core`).  The Moebius function
(:meth:`Poset.mobius`) rejects acyclicity without linear algebra.
:func:`simplicial_model` chooses the complex that all (co)homology is
built on: a face poset's own simplicial complex (recognised by
:func:`simplicial_vertices`), else the order complex, its barycentric
subdivision.  Each simplex stands for an element (`OrderComplex.element`).
:func:`order_complex` counts the chains before it lists them and
refuses more than MAX_CHAINS.
"""

from __future__ import annotations

import heapq
from collections import Counter
from operator import itemgetter
from typing import Hashable, Iterable, Optional, Sequence


class PosetError(Exception):
    pass


class UnknownElementError(PosetError):
    pass


class CycleError(PosetError):
    pass


class RedundantCoverError(PosetError):
    """A declared cover (u, v) is implied by a longer path u -> v."""


class ChainCountError(PosetError):
    """The order complex has more chains than MAX_CHAINS."""


# Chains can number 2^n - 1 on n elements; order complexes over this many
# are refused.  The slowest beat-free shape measured under it, the ladder of
# 10 two-element antichains (59,048 chains), takes 1.6 s over Q at rank 1
# and 3.6 s at rank 2 (constant sheaf, in-process, 2 vCPU); the 16-element
# chain collapses to a point first (0.2 ms at rank 2).
MAX_CHAINS = 65_536


class Poset:
    """Finite poset given by its Hasse diagram.

    Construct one with :func:`build_poset`, which validates the input
    and hands over the tables it computed; all else is derived.
    """

    __slots__ = ("elements", "_covers", "_order", "_above", "_upper", "_lower",
                 "_mobius", "_acyclic")

    def __init__(self, upper: dict, lower: dict, above: dict, order: tuple):
        self.elements = tuple(upper)
        self._covers = None  # the cover pairs, read off `upper` on first use
        self._order = order  # a linear extension
        self._upper = upper
        self._lower = lower
        self._above = above
        self._mobius = [None, None]  # the order's table, then the dual's
        # element set -> acyclicity verdict; shared with every induced subposet
        self._acyclic = {}

    # -- queries ------------------------------------------------------

    def __contains__(self, e) -> bool:
        return e in self._upper

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, Poset) and self._upper == other._upper

    def __hash__(self):
        return hash(frozenset(self._upper.items()))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    @property
    def covers(self) -> frozenset:
        """The cover pairs (lower, upper)."""
        if self._covers is None:
            self._covers = frozenset((u, v) for u, vs in self._upper.items() for v in vs)
        return self._covers

    def _check(self, *els):
        for e in els:
            if e not in self._upper:
                raise UnknownElementError(f"unknown element: {e!r}")

    def upper_covers(self, e) -> tuple:
        self._check(e)
        return self._upper[e]

    def lower_covers(self, e) -> tuple:
        self._check(e)
        return self._lower[e]

    def strictly_above(self, e) -> frozenset:
        self._check(e)
        return self._above[e]

    def strictly_below(self, e) -> frozenset:
        """Derived on each call: the elements whose up-closure holds e."""
        self._check(e)
        return frozenset(t for t, c in self._above.items() if e in c)

    def mobius(self, dual: bool = False) -> dict:
        """mu(e) = -1 - sum of mu(t) over t < e (t > e if `dual`), for every e.

        This is the Moebius function from a bottom (top) adjoined to the
        poset, so by P. Hall's theorem mu(e) is the reduced Euler
        characteristic of the order complex of the strict downset
        (upset) of e: if it is nonzero, that complex is not acyclic.
        Computed on first use, off the up-closures, and kept.
        """
        mu = self._mobius[dual]
        if mu is None:
            above = self._above
            if dual:
                mu = {}
                for e in reversed(self._order):  # e's upset comes first
                    mu[e] = -1 - sum(mu[t] for t in above[e])
            else:
                mu = dict.fromkeys(self._order, -1)
                for t in self._order:  # t's downset has pushed already
                    for v in above[t]:
                        mu[v] -= mu[t]
            self._mobius[dual] = mu
        return mu

    def linear_extension(self) -> tuple:
        """Elements sorted compatibly with the order: ties by name from
        :func:`build_poset`, the parent's order less the removed ones."""
        return self._order


def _closures(order, upper) -> dict:
    """The strict up-closure of every element, given a topological
    order and the upper cover table: the one closure table kept."""
    above = {}
    for e in reversed(order):
        acc = set(upper[e])
        for v in upper[e]:
            acc |= above[v]
        above[e] = frozenset(acc)
    return above


def build_poset(elements: Iterable[Hashable], covers: Iterable[tuple]) -> Poset:
    """Validate and build a poset from element names and cover pairs.

    Rejects duplicate names, unknown endpoints, cycles, and covers that
    are transitively implied by longer paths.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        dupes = sorted(e for e, k in Counter(elements).items() if k > 1)
        raise PosetError(f"duplicate element names: {dupes}")
    known = set(elements)
    covers = frozenset(tuple(c) for c in covers)
    upper = {e: [] for e in elements}
    lower = {e: [] for e in elements}
    for (u, v) in covers:
        if u not in known:
            raise UnknownElementError(f"unknown element in cover: {u!r}")
        if v not in known:
            raise UnknownElementError(f"unknown element in cover: {v!r}")
        upper[u].append(v)
        lower[v].append(u)
    upper = {e: tuple(sorted(vs)) for e, vs in upper.items()}
    lower = {e: tuple(sorted(us)) for e, us in lower.items()}
    # cycle check: Kahn's algorithm, smallest name first, which also
    # yields the linear extension the poset keeps
    indeg = {e: len(lower[e]) for e in elements}
    ready = [e for e in elements if indeg[e] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for v in upper[e]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(elements):
        cyc = sorted(e for e in elements if indeg[e] > 0)
        raise CycleError(f"cover relation contains a cycle through: {cyc}")
    above = _closures(order, upper)
    # redundancy: (u, v) must not be reachable from u via a path avoiding
    # the direct edge
    for (u, v) in covers:
        for w in upper[u]:
            if w != v and v in above[w]:
                raise RedundantCoverError(
                    f"cover ({u!r}, {v!r}) is implied by a path through {w!r}"
                )
    return Poset(upper, lower, above, tuple(order))


def leq(p: Poset, u, v) -> bool:
    """u <= v in the poset order."""
    p._check(u, v)
    return u == v or v in p._above[u]


def induced_subposet(p: Poset, keep) -> Poset:
    """Subposet on `keep` with the induced order, read off copies of p's
    cover tables that the other elements leave by the bridge rule.  It
    shares p's acyclicity verdicts; its linear extension is p's less
    those elements."""
    keep = set(keep)
    p._check(*keep)
    upper, lower = dict(p._upper), dict(p._lower)
    removed = [e for e in p.elements if e not in keep]
    for s in removed:
        _unlink(upper, lower, p._above, s)
    return _subposet_without(p, set(removed), upper, lower)


def _unlink(upper: dict, lower: dict, above: dict, s) -> None:
    """Take s out of the cover tables `upper` and `lower`, in place.

    The bridge rule: a lower cover a and an upper cover b of s become a
    cover unless another upper cover of a lies below b; every other
    cover stays, so only the cover counts of s's covers change.  `above`
    holds strict up-closures in any poset that the tables' poset is
    induced from, since it is asked only about the elements still in the
    tables.  This is the one code that edits cover tables.
    """
    lows, ups = lower.pop(s), upper.pop(s)
    bridges = [(a, b) for a in lows for b in ups
               if not any(b in above[w] for w in upper[a] if w != s)]
    for a in lows:
        upper[a] = tuple(sorted([w for w in upper[a] if w != s]
                                + [b for (x, b) in bridges if x == a]))
    for b in ups:
        lower[b] = tuple(sorted([w for w in lower[b] if w != s]
                                + [a for (a, y) in bridges if y == b]))


def _subposet_without(p: Poset, removed: set, upper: dict, lower: dict) -> Poset:
    """The subposet of p on the elements not in `removed`, which takes
    over the cover tables.

    An up-closure that meets `removed` loses it; every other one is p's
    own.  The result shares p's acyclicity verdicts."""
    above = {x: c if c.isdisjoint(removed) else c - removed
             for x, c in p._above.items() if x not in removed}
    q = Poset(upper, lower, above, tuple(e for e in p._order if e not in removed))
    q._acyclic = p._acyclic
    return q


class OrderComplex:
    """All chains of a poset, grouped by dimension.

    `simplices[k]` lists the k-dimensional simplices (chains of k+1
    elements), each as a tuple increasing in the poset order.
    `element(simplex)` is the poset element that a simplex stands for:
    the top of a chain, or the face itself in a face poset's own
    complex (:func:`simplicial_model`).
    """

    __slots__ = ("simplices", "element")

    def __init__(self, simplices: Sequence[Sequence[tuple]]):
        self.simplices = tuple(tuple(level) for level in simplices)
        self.element = itemgetter(-1)

    @property
    def vertex_count(self) -> int:
        return len(self.simplices[0]) if self.simplices else 0

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def __eq__(self, other):
        return isinstance(other, OrderComplex) and \
            [set(l) for l in self.simplices] == [set(l) for l in other.simplices]

    def __repr__(self):
        return f"OrderComplex(counts={self.counts()})"


def chain_count(p: Poset) -> int:
    """The number of nonempty chains of p, without listing them; past
    MAX_CHAINS the sum stops, and the result only shows that it passed.

    c(e) = 1 + sum of c(v) over v > e counts the chains whose bottom is e.
    """
    above = p._above
    count = {}
    total = 0
    for e in reversed(p._order):
        count[e] = 1 + sum(count[v] for v in above[e])
        total += count[e]
        if total > MAX_CHAINS:
            break
    return total


def order_complex(p: Poset) -> OrderComplex:
    """Every nonempty chain of p, as a simplicial complex.

    Raises :class:`ChainCountError`, before listing any chain, when p
    has more than MAX_CHAINS chains.
    """
    if chain_count(p) > MAX_CHAINS:
        raise ChainCountError(f"the order complex has more than {MAX_CHAINS} chains")
    succ = {e: sorted(p._above[e]) for e in p.elements}
    # extending a sorted level in order, each chain by its sorted
    # successors, yields the next level sorted
    level = [(e,) for e in sorted(p.elements)]
    levels = []
    while level:
        levels.append(level)
        level = [chain + (v,) for chain in level for v in succ[chain[-1]]]
    return OrderComplex(levels)


def simplicial_vertices(p: Poset) -> Optional[dict]:
    """x -> V(x), the minimal elements at or below x, if p is the face
    poset of a simplicial complex; None otherwise (also when p is empty).

    p is accepted iff V is injective and every x has 2^|V(x)| - 1
    elements at or below it.  Then y -> V(y) maps the downset of x one
    to one onto the nonempty subsets of V(x), and y <= z iff V(y) is
    in V(z): each downset is a Boolean lattice without its bottom.
    V(x) is the union of V over x's lower covers, or {x} if x is minimal.
    """
    if not p.elements:
        return None
    size = Counter(v for c in p._above.values() for v in c)  # x -> |D_x|
    vertices = {}
    seen = set()
    for x in p._order:
        lows = p._lower[x]
        v = frozenset().union(*map(vertices.__getitem__, lows)) if lows else frozenset((x,))
        if size[x] + 1 != 2 ** len(v) - 1 or v in seen:
            return None
        seen.add(v)
        vertices[x] = v
    return vertices


def simplicial_model(p: Poset) -> OrderComplex:
    """The complex that every (co)homology of p is built on: it has the
    integral homology of p's order complex, torsion included, and a
    sheaf on p has the cohomology of its stalks there.

    If :func:`simplicial_vertices` accepts p, this is p's own simplicial
    complex, whose barycentric subdivision is the order complex: level j
    lists the name-sorted vertex tuples of the elements with j + 1
    vertices, one simplex per element rather than one per chain, and
    each stands for its element.  Otherwise it is :func:`order_complex`,
    with its chain budget, whose chains stand for their tops.
    """
    vertices = simplicial_vertices(p)
    if vertices is None:
        return order_complex(p)
    faces = {tuple(sorted(v)): x for x, v in vertices.items()}
    levels = [[] for _ in range(max(map(len, faces)))]
    for face in sorted(faces):
        levels[len(face) - 1].append(face)
    k = OrderComplex(levels)
    k.element = faces.__getitem__
    return k

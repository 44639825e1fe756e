"""Cochain complexes and exact (co)homology.

Sheaf cohomology is computed on the beat core of the space, which has
the same cohomology, from one of two complexes with that cohomology.
On the face poset of a simplicial complex (recognised by
:func:`~posheaf.poset.simplicial_vertices`) it is the cellular complex:
each face contributes its stalk once.  On any other poset it is the Roos
complex: each chain contributes the stalk at its top element.
Simplicial cochain complexes give constant coefficients, on any
simplicial complex in the :class:`~posheaf.poset.OrderComplex`
container: the library builds them on Stong's core
(:func:`~posheaf.simplify.poset_core`), with that core's own simplicial
complex if it is a face poset and its order complex otherwise
(:func:`~posheaf.poset.simplicial_model`).  All three come from one
routine, :func:`_assemble`.  Cohomology over a field comes from exact
ranks, integral homology from Smith normal forms.

Sign convention: the vertices of every chain are listed in poset order
and the i-th face carries sign (-1)^i.  In the Roos differential only
the deleted-top face carries a restriction map; all other faces act by
the identity.  In the cellular differential a face that lacks the
vertex at position i (from 0) of the cell's name-sorted vertices carries
(-1)^i times the cover map.
"""

from __future__ import annotations

from collections import namedtuple

from .exact_linalg import ZZ, Matrix, compose, rank, smith_normal_form
from .poset import OrderComplex, order_complex, simplicial_vertices
from .sheaf import SheavedSpace, require_commutative


class ComplexError(Exception):
    """A differential pair fails d.d = 0 or shapes do not chain."""


class CochainComplex:
    """Graded dimensions with differentials d_j : C^j -> C^{j+1}."""

    __slots__ = ("degrees", "differentials")

    def __init__(self, degrees, differentials):
        self.degrees = tuple(degrees)
        self.differentials = tuple(differentials)
        if len(self.differentials) != max(len(self.degrees) - 1, 0):
            raise ComplexError("need one differential per consecutive degree pair")
        for j, d in enumerate(self.differentials):
            if (d.rows, d.cols) != (self.degrees[j + 1], self.degrees[j]):
                raise ComplexError(
                    f"d_{j} has shape {d.rows}x{d.cols}, expected "
                    f"{self.degrees[j + 1]}x{self.degrees[j]}"
                )

    def check_d_squared(self) -> None:
        for j in range(len(self.differentials) - 1):
            if not compose(self.differentials[j + 1], self.differentials[j]).is_zero():
                raise ComplexError(f"d_{j + 1} . d_{j} != 0")

    def euler_characteristic(self) -> int:
        return sum((-1) ** j * n for j, n in enumerate(self.degrees))

    def __repr__(self):
        return f"CochainComplex(degrees={self.degrees})"


class HomologyResult(namedtuple("HomologyResult", "betti torsion", defaults=((),))):
    """Per-degree Betti numbers (`betti`), plus torsion coefficients over
    Z (`torsion`, one tuple per degree; empty by default)."""

    __slots__ = ()

    def betti_trimmed(self) -> tuple[int, ...]:
        b = list(self.betti)
        while b and b[-1] == 0:
            b.pop()
        return tuple(b)

    def torsion_trimmed(self) -> tuple[tuple[int, ...], ...]:
        t = list(self.torsion)
        while t and not t[-1]:
            t.pop()
        return tuple(t)

    def same_groups(self, other: "HomologyResult") -> bool:
        """Equality of the (co)homology groups, ignoring padding."""
        return (
            self.betti_trimmed() == other.betti_trimmed()
            and self.torsion_trimmed() == other.torsion_trimmed()
        )

    def is_trivial(self) -> bool:
        return not self.betti_trimmed() and not self.torsion_trimmed()


def _assemble(ring, levels, dim, faces) -> CochainComplex:
    """The cochain complex over `ring` whose C^j sums a summand of
    dimension `dim(cell)` over the cells of `levels[j]`, in their order.

    `faces(tau)` lists (sigma, sign, m) for the faces sigma of tau one
    level down: the block of d at (tau, sigma) is sign * m, or sign
    times the identity when m is None (sigma's summand is then tau's).
    """
    degrees = []
    offsets = []  # per level: cell -> first coordinate
    for level in levels:
        off = {}
        total = 0
        for cell in level:
            off[cell] = total
            total += dim(cell)
        degrees.append(total)
        offsets.append(off)
    diffs = []
    for j in range(len(degrees) - 1):
        rows = [{} for _ in range(degrees[j + 1])]
        s_offsets = offsets[j]
        for tau, t_off in offsets[j + 1].items():
            size = dim(tau)
            # the faces are distinct cells, so their column blocks are disjoint
            for sigma, sign, m in faces(tau):
                s_off = s_offsets[sigma]
                if m is not None:
                    for r, mrow in enumerate(m.sparse, t_off):
                        row = rows[r]
                        for c, x in mrow.items():
                            row[s_off + c] = sign * x
                elif size == 1:  # as in every simplicial complex: no range loop
                    rows[t_off][s_off] = sign
                else:
                    for r in range(size):
                        rows[t_off + r][s_off + r] = sign
        diffs.append(Matrix.from_sparse(ring, degrees[j + 1], degrees[j], rows))
    return CochainComplex(degrees, diffs)


def roos_complex(sp: SheavedSpace) -> CochainComplex:
    """The Roos cochain complex of a sheaved space.

    C^j is the direct sum, over chains of j+1 elements, of the stalk at
    the chain's maximum.  The component of the differential at a longer
    chain tau sums the faces of tau with alternating signs; dropping the
    top element composes with the restriction map up to tau's top,
    every other face keeps the stalk and acts by the identity.
    """
    f = sp.sheaf
    require_commutative(f)

    def faces(tau):
        last = len(tau) - 1
        for i in range(last):
            yield tau[:i] + tau[i + 1:], -1 if i % 2 else 1, None
        yield tau[:last], -1 if last % 2 else 1, f.restriction(tau[last - 1], tau[last])

    dims = f.stalk_dim
    return _assemble(f.ring, order_complex(sp.poset).simplices, lambda c: dims[c[-1]], faces)


def cellular_complex(sp: SheavedSpace, vertices: dict) -> CochainComplex:
    """The cellular cochain complex of a sheaf on a simplicial face poset.

    `vertices` is :func:`~posheaf.poset.simplicial_vertices` of the
    poset.  C^j sums the stalks over the j-faces (j+1 vertices), sorted
    by name.  The block of d at a cover sigma < tau is (-1)^i times the
    cover map, where sigma lacks the vertex at position i (from 0) of
    tau's vertices in name order.
    """
    f = sp.sheaf
    require_commutative(f)
    p = sp.poset
    levels = [[] for _ in range(max(map(len, vertices.values())))]
    for x in sorted(p.elements):
        levels[len(vertices[x]) - 1].append(x)

    def faces(tau):
        names = sorted(vertices[tau])
        for sigma in p.lower_covers(tau):
            (lacking,) = vertices[tau] - vertices[sigma]
            i = names.index(lacking)
            yield sigma, -1 if i % 2 else 1, f.cover_maps[(sigma, tau)]

    return _assemble(f.ring, levels, f.stalk_dim.__getitem__, faces)


def _betti(degrees, ranks) -> tuple[int, ...]:
    """b_j = dim C^j - rank d_{j-1} - rank d_j, from the rank of every d_j."""
    return tuple(
        dim - (ranks[j - 1] if j else 0) - (ranks[j] if j < len(ranks) else 0)
        for j, dim in enumerate(degrees)
    )


def field_cohomology(c: CochainComplex) -> HomologyResult:
    """Betti numbers of a field-coefficient cochain complex, trusting d.d = 0."""
    betti = _betti(c.degrees, [rank(d) for d in c.differentials])
    return HomologyResult(betti, ((),) * len(betti))


def sheaf_cohomology(sp: SheavedSpace) -> HomologyResult:
    """Sheaf cohomology (unreduced), computed on the beat core.

    Removing a beat keeps sheaf cohomology, so the complex is built only
    for :func:`~posheaf.simplify.core` of the space: the cellular complex
    if the core is a simplicial face poset, the Roos complex otherwise.
    The core keeps that result, so every space with the same core object
    shares one complex.  The result has one degree per element of a
    longest chain of the input, as the input's own complex would; the
    chain budget (:class:`~posheaf.poset.ChainCountError`) applies to
    the core.
    """
    from .simplify import core  # simplify imports this module

    reduced, trace = core(sp)
    h = reduced._cohomology
    if h is None:
        vertices = simplicial_vertices(reduced.poset)
        c = roos_complex(reduced) if vertices is None else cellular_complex(reduced, vertices)
        h = reduced._cohomology = field_cohomology(c)
    if not trace.steps:
        return h
    pad = _longest_chain(sp.poset) - len(h.betti)
    return HomologyResult(h.betti + (0,) * pad, h.torsion + ((),) * pad)


def _longest_chain(p) -> int:
    """The number of elements in a longest chain of p."""
    length = {}
    for e in p.linear_extension():
        length[e] = 1 + max((length[u] for u in p.lower_covers(e)), default=0)
    return max(length.values(), default=0)


def simplicial_cochain_complex(k: OrderComplex, ring) -> CochainComplex:
    """Constant-coefficient cochain complex of a simplicial complex in
    the :class:`~posheaf.poset.OrderComplex` container: an order complex,
    or a complex of vertex tuples closed under faces.

    Row tau of d_j sends the face of tau that drops its i-th vertex (in
    the tuple's order: poset order for a chain) to (-1)^i, so d_j is the
    transpose of the boundary out of degree j+1 and both compute the
    same Betti numbers over a field.
    """
    return _assemble(ring, k.simplices, lambda chain: 1, lambda tau: (
        (tau[:i] + tau[i + 1:], -1 if i % 2 else 1, None) for i in range(len(tau))))


def integral_homology(k: OrderComplex, reduced: bool = True) -> HomologyResult:
    """Integral homology of a simplicial complex in the
    :class:`~posheaf.poset.OrderComplex` container (an order complex, or
    :func:`~posheaf.poset.simplicial_model` of a poset) via Smith normal
    forms.

    The coboundary d_j is the transpose of the boundary into degree j,
    with the same invariant factors, so the torsion of H_j is that of
    d_j.  H_0 is free, so reduced homology (the default) only removes
    one Z from it: acyclic complexes report all groups zero.  The empty
    complex reports a single degree with Betti 0 but is never acyclic
    (see :func:`is_acyclic`).
    """
    if k.vertex_count == 0:
        return HomologyResult((0,), ((),))
    c = simplicial_cochain_complex(k, ZZ)
    forms = [smith_normal_form(d) for d in c.differentials]
    h = HomologyResult(_betti(c.degrees, [f.rank for f in forms]),
                       tuple(f.torsion for f in forms) + ((),))
    return reduce_homology(h) if reduced else h


def reduce_homology(h: HomologyResult) -> HomologyResult:
    """Reduced from unreduced integral homology: one Z less in H_0.

    The empty complex (H_0 = 0) keeps its result, as in
    :func:`integral_homology`.
    """
    if not h.betti[0]:
        return h
    return HomologyResult((h.betti[0] - 1,) + h.betti[1:], h.torsion)


def is_acyclic(k: OrderComplex) -> bool:
    """True iff the simplicial complex k (any complex that
    :func:`integral_homology` takes) is nonempty with trivial reduced
    integral homology.

    The empty complex is deliberately not acyclic: "homology of a
    point" presupposes a point.
    """
    if k.vertex_count == 0:
        return False
    return integral_homology(k).is_trivial()

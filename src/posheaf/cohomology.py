"""Cochain complexes and exact (co)homology.

Every complex is built by one routine, :func:`_assemble`, on a
simplicial complex in the :class:`~posheaf.poset.OrderComplex`
container.  The sheaf cohomology of a space comes from
:func:`sheaf_complex` on :func:`~posheaf.poset.simplicial_model` of its
poset (:func:`space_cohomology`): each simplex carries the stalk at the
element it stands for.  On the face poset of a simplicial complex that
is the complex itself, and each face contributes its stalk once; on any
other poset it is the order complex, and the result is the Roos complex
(:func:`roos_complex`): each chain contributes the stalk at its top
element.  Simplicial cochain complexes give constant coefficients.
Cohomology over a field comes from exact ranks (a field result has no
torsion), integral homology from Smith normal forms, unreduced;
:func:`reduce_homology` is the one way to reduce it.

Sign convention: the vertices of every simplex are listed in order
(poset order for a chain, name order for a face) and the face without
the i-th vertex carries sign (-1)^i.  A face acts by the restriction
map between the two elements that it and its simplex stand for, and by
the identity where they are one element: in the Roos differential only
the deleted-top face carries a restriction map.
"""

from __future__ import annotations

from collections import namedtuple

from .exact_linalg import ZZ, Matrix, compose, rank, smith_normal_form
from .poset import OrderComplex, order_complex, simplicial_model
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

    def __repr__(self):
        return f"CochainComplex(degrees={self.degrees})"


class HomologyResult(namedtuple("HomologyResult", "betti torsion", defaults=((),))):
    """Per-degree Betti numbers (`betti`), plus torsion coefficients over
    Z (`torsion`, one tuple per degree); a field result has none."""

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

    def is_trivial(self) -> bool:
        return not self.betti_trimmed() and not self.torsion_trimmed()


def _assemble(ring, levels, dim, block) -> CochainComplex:
    """The cochain complex over `ring` whose C^j sums a summand of
    dimension `dim(simplex)` over the simplices of `levels[j]`, in their
    order.

    The block of d at (tau, sigma), where sigma is tau without its i-th
    vertex, is (-1)^i times `block(sigma, tau)`, or (-1)^i times the
    identity when that is None (sigma's summand is then tau's).
    """
    degrees = []
    offsets = []  # per level: simplex -> first coordinate
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
            # the faces are distinct simplices, so their column blocks are disjoint
            for i in range(j + 2):
                sigma = tau[:i] + tau[i + 1:]
                sign = -1 if i % 2 else 1
                s_off = s_offsets[sigma]
                m = block(sigma, tau)
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


def sheaf_complex(sp: SheavedSpace, k: OrderComplex) -> CochainComplex:
    """The cochain complex of the sheaf of `sp` on a simplicial model k
    of its poset: :func:`~posheaf.poset.order_complex` or
    :func:`~posheaf.poset.simplicial_model`.

    C^j sums, over the j-simplices of k, the stalk at the element that
    each stands for (:attr:`~posheaf.poset.OrderComplex.element`).  The
    block of d at a face sigma of tau is the restriction from sigma's
    element to tau's, the identity where the two are one element.
    """
    f = sp.sheaf
    require_commutative(f)
    element, dims, restriction = k.element, f.stalk_dim, f.restriction

    def block(sigma, tau):
        x, y = element(sigma), element(tau)
        return None if x == y else restriction(x, y)

    return _assemble(f.ring, k.simplices, lambda s: dims[element(s)], block)


def roos_complex(sp: SheavedSpace) -> CochainComplex:
    """The Roos cochain complex, :func:`sheaf_complex` on the order
    complex: C^j sums the stalks at the tops of the chains of j+1
    elements, and only the face without the top acts by a restriction."""
    return sheaf_complex(sp, order_complex(sp.poset))


def _betti(degrees, ranks) -> tuple[int, ...]:
    """b_j = dim C^j - rank d_{j-1} - rank d_j, from the rank of every d_j."""
    return tuple(
        dim - (ranks[j - 1] if j else 0) - (ranks[j] if j < len(ranks) else 0)
        for j, dim in enumerate(degrees)
    )


def field_cohomology(c: CochainComplex) -> HomologyResult:
    """Betti numbers of a field-coefficient cochain complex, trusting d.d = 0."""
    return HomologyResult(_betti(c.degrees, [rank(d) for d in c.differentials]))


def space_cohomology(sp: SheavedSpace) -> HomologyResult:
    """Sheaf cohomology of `sp` (unreduced), from :func:`sheaf_complex` on
    :func:`~posheaf.poset.simplicial_model` of its poset: one summand per
    face on a simplicial face poset, the Roos complex otherwise."""
    return field_cohomology(sheaf_complex(sp, simplicial_model(sp.poset)))


def simplicial_cochain_complex(k: OrderComplex, ring) -> CochainComplex:
    """Constant-coefficient cochain complex of a simplicial complex in
    the :class:`~posheaf.poset.OrderComplex` container: an order complex,
    or a complex of vertex tuples closed under faces.

    Row tau of d_j sends the face of tau that drops its i-th vertex (in
    the tuple's order: poset order for a chain) to (-1)^i, so d_j is the
    transpose of the boundary out of degree j+1 and both compute the
    same Betti numbers over a field.
    """
    return _assemble(ring, k.simplices, lambda s: 1, lambda sigma, tau: None)


def integral_homology(k: OrderComplex) -> HomologyResult:
    """Unreduced integral homology of a simplicial complex in the
    :class:`~posheaf.poset.OrderComplex` container (an order complex, or
    :func:`~posheaf.poset.simplicial_model` of a poset) via Smith normal
    forms; :func:`reduce_homology` reduces it.

    The coboundary d_j is the transpose of the boundary into degree j,
    with the same invariant factors, so the torsion of H_j is that of
    d_j.  The empty complex reports a single degree with Betti 0 but is
    never acyclic (see :func:`is_acyclic`).
    """
    if k.vertex_count == 0:
        return HomologyResult((0,), ((),))
    c = simplicial_cochain_complex(k, ZZ)
    forms = [smith_normal_form(d) for d in c.differentials]
    return HomologyResult(_betti(c.degrees, [f.rank for f in forms]),
                          tuple(f.torsion for f in forms) + ((),))


def reduce_homology(h: HomologyResult) -> HomologyResult:
    """Reduced from unreduced integral homology: one Z less in H_0, so
    that acyclic complexes report all groups zero (H_0 is free).

    The empty complex (H_0 = 0) keeps its result.
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
    return k.vertex_count > 0 and reduce_homology(integral_homology(k)).is_trivial()

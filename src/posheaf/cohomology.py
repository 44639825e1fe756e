"""Cochain complexes and exact (co)homology.

Builds the Roos complex of a sheaved space (degree-j chains contribute
the stalk at the chain's top element) and simplicial chain complexes of
order complexes; cohomology over a field comes from exact ranks,
integral homology from Smith normal forms.

Sign convention: the vertices of every chain are listed in poset order
and the i-th face carries sign (-1)^i.  In the Roos differential only
the deleted-top face carries a restriction map; all other faces act by
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import ZZ, Matrix, compose, rank, smith_normal_form
from .poset import OrderComplex, order_complex
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


class ChainComplex:
    """Homologically graded complex: boundaries[j] : C_j -> C_{j-1}.

    With `reduced` set, boundaries[0] is the augmentation C_0 -> R.
    """

    __slots__ = ("degrees", "boundaries", "reduced")

    def __init__(self, degrees, boundaries, reduced=False):
        self.degrees = tuple(degrees)
        self.boundaries = tuple(boundaries)
        self.reduced = reduced
        lo = 0 if reduced else 1
        for j, b in enumerate(self.boundaries):
            jj = j + lo
            prev = self.degrees[jj - 1] if jj >= 1 else 1
            if (b.rows, b.cols) != (prev, self.degrees[jj]):
                raise ComplexError(f"boundary {jj} has wrong shape")

    def check_d_squared(self) -> None:
        lo = 0 if self.reduced else 1
        for j in range(len(self.boundaries) - 1):
            if not compose(self.boundaries[j], self.boundaries[j + 1]).is_zero():
                raise ComplexError(f"boundary composition at degree {j + lo + 1} nonzero")

    def __repr__(self):
        return f"ChainComplex(degrees={self.degrees}, reduced={self.reduced})"


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree Betti numbers, plus torsion coefficients over Z."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] = ()
    reduced: bool = False

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
    ring = f.ring
    k = order_complex(sp.poset)
    degrees = []
    offsets = []  # per level: chain -> first coordinate
    for level in k.simplices:
        off = {}
        total = 0
        for chain in level:
            off[chain] = total
            total += f.stalk_dim[chain[-1]]
        degrees.append(total)
        offsets.append(off)
    diffs = []
    for j in range(len(degrees) - 1):
        rows = [{} for _ in range(degrees[j + 1])]
        for tau in k.simplices[j + 1]:
            t_off = offsets[j + 1][tau]
            top = tau[-1]
            dt = f.stalk_dim[top]
            # the faces are distinct chains, so their column blocks are disjoint
            for i in range(len(tau)):
                sigma = tau[:i] + tau[i + 1:]
                s_off = offsets[j][sigma]
                sign = -1 if i % 2 else 1
                if i == len(tau) - 1:
                    m = f.restriction(sigma[-1], top)
                    for r, mrow in enumerate(m.sparse):
                        row = rows[t_off + r]
                        for c, x in mrow.items():
                            row[s_off + c] = sign * x
                else:
                    for r in range(dt):
                        rows[t_off + r][s_off + r] = sign
        diffs.append(Matrix.from_sparse(ring, degrees[j + 1], degrees[j], rows))
    return CochainComplex(degrees, diffs)


def field_cohomology(c: CochainComplex) -> HomologyResult:
    """Betti numbers of a field-coefficient cochain complex."""
    c.check_d_squared()
    ranks = [rank(d) for d in c.differentials]
    betti = []
    for j, dim in enumerate(c.degrees):
        r_out = ranks[j] if j < len(ranks) else 0
        r_in = ranks[j - 1] if j >= 1 else 0
        betti.append(dim - r_out - r_in)
    return HomologyResult(tuple(betti), tuple(() for _ in betti), reduced=False)


def sheaf_cohomology(sp: SheavedSpace) -> HomologyResult:
    """Sheaf cohomology via the Roos complex (unreduced)."""
    return field_cohomology(roos_complex(sp))


def simplicial_chain_complex(k: OrderComplex, ring, reduced: bool = False) -> ChainComplex:
    """Constant-coefficient simplicial chain complex of an order complex.

    Boundary signs alternate over the poset-ordered vertex sequence of
    each chain.  With `reduced`, the augmentation (all-ones row on
    vertices) is included as the boundary out of degree 0.
    """
    degrees = k.counts()
    index = [{chain: i for i, chain in enumerate(level)} for level in k.simplices]
    boundaries = []
    if reduced and degrees:
        boundaries.append(Matrix(ring, 1, degrees[0], [[1] * degrees[0]]))
    for j in range(1, len(degrees)):
        rows = [{} for _ in range(degrees[j - 1])]
        for col, chain in enumerate(k.simplices[j]):
            for i in range(len(chain)):
                face = chain[:i] + chain[i + 1:]
                rows[index[j - 1][face]][col] = -1 if i % 2 else 1
        boundaries.append(Matrix.from_sparse(ring, degrees[j - 1], degrees[j], rows))
    return ChainComplex(degrees, boundaries, reduced=reduced)


def chain_homology_field(c: ChainComplex) -> HomologyResult:
    """Betti numbers of a field-coefficient chain complex."""
    c.check_d_squared()
    lo = 0 if c.reduced else 1
    ranks = {j + lo: rank(b) for j, b in enumerate(c.boundaries)}
    betti = []
    for j, dim in enumerate(c.degrees):
        betti.append(dim - ranks.get(j, 0) - ranks.get(j + 1, 0))
    return HomologyResult(tuple(betti), tuple(() for _ in betti), reduced=c.reduced)


def integral_homology(k: OrderComplex, reduced: bool = True) -> HomologyResult:
    """Integral homology of an order complex via Smith normal forms.

    With `reduced` (the default) the augmentation participates in
    degree 0, so acyclic complexes report all groups zero.  The empty
    complex reports a single degree with Betti 0 but is never acyclic
    (see :func:`is_acyclic`).
    """
    if k.vertex_count == 0:
        return HomologyResult((0,), ((),), reduced=reduced)
    c = simplicial_chain_complex(k, ZZ, reduced=reduced)
    forms = {}
    lo = 0 if reduced else 1
    for j, b in enumerate(c.boundaries):
        forms[j + lo] = smith_normal_form(b)
    betti = []
    torsion = []
    for j, dim in enumerate(c.degrees):
        r_out = forms[j].rank if j in forms else 0
        r_in = forms[j + 1].rank if j + 1 in forms else 0
        betti.append(dim - r_out - r_in)
        torsion.append(forms[j + 1].torsion if j + 1 in forms else ())
    return HomologyResult(tuple(betti), tuple(torsion), reduced=reduced)


def integral_reduced_homology(k: OrderComplex) -> HomologyResult:
    return integral_homology(k, reduced=True)


def is_acyclic(k: OrderComplex) -> bool:
    """True iff k is nonempty with trivial reduced integral homology.

    The empty complex is deliberately not acyclic: "homology of a
    point" presupposes a point.
    """
    if k.vertex_count == 0:
        return False
    return integral_reduced_homology(k).is_trivial()

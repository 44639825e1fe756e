"""Sheaves on finite posets as commuting diagrams of linear maps.

A sheaf assigns a stalk dimension to every element and a matrix to every
Hasse cover edge, maps pointing upward: for the cover (u, v), a
dim(v) x dim(u) matrix acting on column vectors.  All composite maps
between comparable elements must agree along every cover path; that is
checked once per sheaf, on local squares, except that a diagram of
identity maps (the constant sheaf) commutes without a check.  Composites
are made on first use.

Subspaces of a verified space are made by a private working subspace
(:class:`_WorkingSubspace`): elements leave it one at a time, each by
changing only the cover tables next to it, and a :class:`SheavedSpace`
is built only when one is asked for.  :func:`restrict` and every
removal loop and rule of :mod:`posheaf.simplify` run on it.  A space
has two memo slots, which only :mod:`posheaf.simplify` reads and writes.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .exact_linalg import Matrix, PrimeField, Rationals, compose
from .poset import Poset, _subposet_without, _unlink, leq


class SheafError(Exception):
    pass


class CommutativityError(SheafError):
    def __init__(self, lower, upper, left: Matrix, right: Matrix):
        self.lower = lower
        self.upper = upper
        self.left = left
        self.right = right
        super().__init__(
            f"composites from {lower!r} to {upper!r} disagree along different cover paths"
        )


class Sheaf:
    """Stalk dimensions plus one matrix per cover edge of the base poset.

    Construction validates shapes only; call :func:`check_commutativity`
    to verify that the diagram commutes.  A sheaf remembers a successful
    check.  A restriction of a verified sheaf is verified by construction
    and shares its parent's memo of the composites made so far.
    """

    __slots__ = ("base", "ring", "stalk_dim", "cover_maps", "_composites", "_verified")

    def __init__(self, base: Poset, ring, stalk_dim: Mapping, cover_maps: Mapping):
        if not isinstance(ring, (Rationals, PrimeField)):
            raise SheafError(f"sheaf coefficients must be Q or GF(p), got {ring!r}")
        self.base = base
        self.ring = ring
        sd = {}
        for e in base.elements:
            if e not in stalk_dim:
                raise SheafError(f"missing stalk dimension for {e!r}")
            d = stalk_dim[e]
            if type(d) is not int or d < 0:  # True is no dimension
                raise SheafError(f"bad stalk dimension for {e!r}: {d!r}")
            sd[e] = d
        extra = set(stalk_dim) - set(base.elements)
        if extra:
            raise SheafError(f"stalks for unknown elements: {_listed(extra)}")
        self.stalk_dim = sd
        cm = {}
        for cov in base.covers:
            if cov not in cover_maps:
                raise SheafError(f"missing map for cover {cov!r}")
            cm[cov] = _checked_map(cov, cover_maps[cov], ring, sd)
        extra = set(cover_maps) - set(base.covers)
        if extra:
            raise SheafError(f"maps for non-covers: {_listed(extra)}")
        self.cover_maps = cm
        self._composites = {}  # (x, v) -> composite x -> v, for x < v
        self._verified = False

    def __eq__(self, other):
        return (
            isinstance(other, Sheaf)
            and self.base == other.base
            and self.ring == other.ring
            and self.stalk_dim == other.stalk_dim
            and self.cover_maps == other.cover_maps
        )

    def __repr__(self):
        return f"Sheaf({self.ring}, {len(self.base)} stalks)"

    def restriction(self, u, v) -> Matrix:
        """The composite map u -> v for u <= v, made on first use.

        A cover's map is returned as it is.  Otherwise the path walks up
        from u, each step to the smallest-named upper cover that lies
        below v; commutativity makes the choice immaterial.  The
        composite x -> v of every x on the path is kept.
        """
        m = self.cover_maps.get((u, v))
        if m is not None:
            return m
        if not leq(self.base, u, v):
            raise SheafError(f"{u!r} is not below {v!r}")
        if u == v:
            return Matrix.identity(self.ring, self.stalk_dim[v])
        memo = self._composites
        path = [u]
        while path[-1] != v and (path[-1], v) not in memo:
            path.append(next(w for w in self.base.upper_covers(path[-1])
                             if w == v or v in self.base.strictly_above(w)))
        m = memo.get((path[-1], v))
        for x, w in zip(path[-2::-1], path[:0:-1]):
            cover = self.cover_maps[(x, w)]
            m = memo[(x, v)] = cover if w == v else compose(m, cover)
        return m


def _listed(keys) -> list:
    """`keys` sorted, by their reprs if they do not compare."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=repr)


def _checked_map(cov, m: Matrix, ring, stalk_dim: Mapping) -> Matrix:
    """m, if it is a Matrix of the sheaf's ring and cover cov's shape."""
    u, v = cov
    if not isinstance(m, Matrix):
        raise SheafError(f"map for {cov!r} is a {type(m).__name__}, not a Matrix")
    if m.ring != ring:
        raise SheafError(f"map for {cov!r} has ring {m.ring}, sheaf has {ring}")
    if (m.rows, m.cols) != (stalk_dim[v], stalk_dim[u]):
        raise SheafError(
            f"map for {cov!r} has shape {m.rows}x{m.cols}, "
            f"expected {stalk_dim[v]}x{stalk_dim[u]}"
        )
    return m


class SheavedSpace:
    """A poset together with a sheaf on it.

    `_core` and `_cohomology` are memos of :mod:`posheaf.simplify`, None
    until it fills them, and neither refers back to the space: the
    deterministic core and the steps to it, or (None, ()) on a space that
    is its own core; and a core's sheaf cohomology, unpadded.
    """

    __slots__ = ("poset", "sheaf", "_core", "_cohomology")

    def __init__(self, poset: Poset, sheaf: Sheaf):
        if sheaf.base is not poset and sheaf.base != poset:
            raise SheafError("sheaf base differs from the given poset")
        self.poset = poset
        self.sheaf = sheaf
        self._core = None
        self._cohomology = None

    def __eq__(self, other):
        return (
            isinstance(other, SheavedSpace)
            and self.poset == other.poset
            and self.sheaf == other.sheaf
        )

    def __repr__(self):
        return f"SheavedSpace({len(self.poset)} elements, {self.sheaf.ring})"


def check_commutativity(f: Sheaf) -> tuple[bool, Optional[CommutativityError]]:
    """Verify path-independence of composite maps.

    Returns (True, None) or (False, error) with the first violating
    pair.  Success is recorded on the sheaf, so the sweep runs once per
    sheaf; a failure is not recorded and is found again on every call.
    A diagram whose cover maps are all identities needs no sweep: every
    composite of identities is the identity.
    """
    if f._verified:
        return True, None
    if not all(m._eye for m in f.cover_maps.values()):
        err = _first_violation(f)
        if err is not None:
            return False, err
    f._verified = True
    return True, None


def _first_violation(f: Sheaf) -> Optional[CommutativityError]:
    """The sweep behind :func:`check_commutativity`: local squares only.

    For each u, each pair of upper covers w1 < w2 and each minimal common
    upper bound v of the two, the composites u -> w1 -> v and
    u -> w2 -> v must agree.  That is enough, by induction on the
    interval: two cover paths from u to t that leave u through w1 and w2
    can each be rerouted, by induction above w1 and w2, through such a
    v <= t, where the square makes them agree.  The common upper bounds
    are up-closed, so v is minimal among them iff none of its lower
    covers is one.  A chain or a tree has no such square.
    """
    base = f.base
    for u in base.linear_extension():
        ups = base.upper_covers(u)
        through = {}  # (w, v) -> the composite u -> w -> v
        for i, w1 in enumerate(ups):
            for w2 in ups[i + 1:]:
                common = base.strictly_above(w1) & base.strictly_above(w2)
                for v in sorted(v for v in common
                                if common.isdisjoint(base.lower_covers(v))):
                    for w in (w1, w2):
                        if (w, v) not in through:
                            through[(w, v)] = compose(f.restriction(w, v), f.cover_maps[(u, w)])
                    if through[(w1, v)] != through[(w2, v)]:
                        return CommutativityError(u, v, through[(w1, v)], through[(w2, v)])
    return None


def require_commutative(f: Sheaf) -> None:
    ok, err = check_commutativity(f)
    if not ok:
        raise err


def constant_sheaf(p: Poset, ring, rank_: int = 1) -> Sheaf:
    """Stalk of dimension `rank_` everywhere, identity cover maps."""
    if type(rank_) is not int:  # True is no rank
        raise SheafError(f"bad rank: {rank_!r}")
    if rank_ < 0:
        raise SheafError("negative rank")
    eye = Matrix.identity(ring, rank_)
    return Sheaf(p, ring, {e: rank_ for e in p.elements},
                 {c: eye for c in p.covers})


class _WorkingSubspace:
    """A subspace of a sheaved space (the root) that elements leave one
    at a time.

    It holds the root, the cover tables `upper` and `lower` of the kept
    elements (the one record of the subspace's covers) and the last
    space it built.  :meth:`remove` changes those tables by the bridge
    rule (:func:`~posheaf.poset._unlink`) and builds nothing.
    :meth:`space` builds the current subspace from the last one built:
    dict copies, the closures of the elements comparable to those
    removed since, and one map per cover in the new `upper` rows: the
    last space's map if it had that cover, else the root sheaf's
    composite, checked for shape.  The root sheaf must commute; every
    space built is verified and shares the root's memo of composites.
    """

    __slots__ = ("root", "upper", "lower", "_built")

    def __init__(self, sp: SheavedSpace):
        self.root = sp
        self.upper = dict(sp.poset._upper)
        self.lower = dict(sp.poset._lower)
        self._built = sp

    def remove(self, s) -> None:
        require_commutative(self.root.sheaf)
        _unlink(self.upper, self.lower, self.root.poset._above, s)

    def space(self) -> SheavedSpace:
        last, f = self._built, self.root.sheaf
        if len(last.poset) == len(self.upper):
            return last
        removed = {e for e in last.poset.elements if e not in self.upper}
        sub = _subposet_without(last.poset, removed, dict(self.upper), dict(self.lower))
        dims = {e: d for e, d in last.sheaf.stalk_dim.items() if e not in removed}
        had = last.sheaf.cover_maps
        maps = {c: had[c] if c in had else _checked_map(c, f.restriction(*c), f.ring, dims)
                for c in ((u, v) for u, vs in sub._upper.items() for v in vs)}
        g = object.__new__(Sheaf)
        g.base, g.ring, g.stalk_dim, g.cover_maps = sub, f.ring, dims, maps
        g._composites = f._composites
        g._verified = True
        self._built = SheavedSpace(sub, g)
        return self._built


def restrict(sp: SheavedSpace, keep) -> SheavedSpace:
    """Sheaved space induced on a subset of elements.

    Maps of induced covers are composites along cover paths of the
    original poset; commutativity makes them well defined, so the sheaf
    must commute (else :class:`CommutativityError`).  Every element not
    kept leaves a working subspace of `sp`, in element order, and the
    restriction is built once, from `sp`'s tables: only the maps of new
    covers are made and have their shapes checked.  The restriction is
    verified and shares the parent's memo of composites, which hold in
    it too; keeping every element gives `sp` itself.
    """
    require_commutative(sp.sheaf)
    keep = set(keep)
    sp.poset._check(*keep)
    w = _WorkingSubspace(sp)
    for s in sp.poset.elements:
        if s not in keep:
            w.remove(s)
    return w.space()

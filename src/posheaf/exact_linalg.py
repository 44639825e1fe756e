"""Exact sparse matrices over Q, GF(p) and Z.

Ranks, kernels and Smith normal forms are computed exactly; no floating
point anywhere.  An element of Q is a Python int when it is integral
and a reduced Fraction otherwise, so integral entries never pay for
Fraction arithmetic; every division goes through one exact helper.
Matrices are immutable and store only their nonzero entries, row by
row; the dense `entries` view is derived on demand.  A matrix knows from
its construction whether it is an identity, and `compose` returns the
other operand for an identity factor, so composites of identity maps
(the constant sheaf's) cost no product and no new matrix.
One sparse elimination kernel (shortest row first, then the sparsest
column, preferring +-1 pivots) serves rank, kernel bases and the unit
phase of the Smith normal form.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import namedtuple
from fractions import Fraction


# the one scalar grammar, of documents and every `coerce`: sign, digits, "/digits"
_SCALAR_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class LinalgError(Exception):
    pass


class KindMismatchError(LinalgError):
    """Operands carry different scalar kinds (e.g. Q vs GF(7))."""


class ShapeError(LinalgError):
    pass


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _exact(x):
    """x as an int or a Fraction, if it is an int (bools too), a Fraction
    or a string of `_SCALAR_RE`; anything else is refused at once, where
    `Fraction()` would take exponents ("1e5000000"), decimals and spaces."""
    if isinstance(x, str):
        if not _SCALAR_RE.fullmatch(x):
            raise LinalgError(f"bad scalar {x!r}: want an integer or a fraction like '-1/2'")
        try:
            if "/" not in x:
                return int(x)
            n, d = x.split("/")
            return Fraction(int(n), int(d))
        except (ValueError, ZeroDivisionError):  # "1/0"; more digits than int() takes
            raise LinalgError(f"bad scalar {x!r}") from None
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        raise LinalgError(f"binary floats are not exact scalars: {x!r}")
    raise LinalgError(f"not an exact scalar: {x!r}")


def _integer(x, ring) -> int:
    """x as an int, if it is an integral exact scalar."""
    x = _exact(x)
    if isinstance(x, int):
        return int(x)
    if x.denominator != 1:  # x is a Fraction
        what = "an integer" if ring.name == "Z" else f"a {ring.name} residue"
        raise LinalgError(f"not {what}: {x}")
    return x.numerator


def _canonical(q):
    """q as an element of Q: an int when integral, else a Fraction."""
    return q.numerator if q.denominator == 1 else q


def _divide(a, b):
    """a / b in Q, exactly; a Python int division would give a float."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return _canonical(a / b)


class Rationals:
    """The field Q; an element is an int when it is integral and a
    fractions.Fraction with denominator > 1 otherwise."""

    name = "Q"
    is_field = True

    def coerce(self, x):
        if type(x) is int:  # the common cases skip the ABC checks
            return x
        if type(x) is not Fraction:
            x = _exact(x)
            if type(x) is not Fraction:  # an integer string, a bool, a subclass
                return int(x) if isinstance(x, int) else _canonical(Fraction(x))
        return _canonical(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class Integers:
    """The ring Z; elements are Python ints (arbitrary precision)."""

    name = "Z"
    is_field = False

    def coerce(self, x):
        if type(x) is int:
            return x
        return _integer(x, self)

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, Integers)

    def __hash__(self):
        return hash("Z")


class PrimeField:
    """GF(p) for prime p < 2^31; elements are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise LinalgError(f"modulus out of range: {p}")
        if not _is_prime(p):
            raise LinalgError(f"modulus is not prime: {p}")
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        return _integer(x, self) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()
ZZ = Integers()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def _modulus(ring):
    return ring.p if isinstance(ring, PrimeField) else None


class Matrix:
    """Immutable sparse matrix with a fixed scalar ring.

    `sparse` holds one dict per row, mapping column index to a nonzero
    entry; callers must not mutate it.  0xn and nx0 shapes are legal.
    A cover map for an edge (u, v) of a poset is stored here as a
    dim(v) x dim(u) matrix acting on column vectors.  `_eye` records
    whether the matrix is an identity, `_rank` its rank once computed.
    """

    __slots__ = ("ring", "rows", "cols", "sparse", "_eye", "_rank")

    def __init__(self, ring, rows: int, cols: int, entries):
        """A matrix from dense rows (any iterables of scalars)."""
        dense = [[ring.coerce(x) for x in row] for row in entries]
        if len(dense) != rows or any(len(r) != cols for r in dense):
            raise ShapeError(f"entries do not fill a {rows}x{cols} matrix")
        self._set(ring, rows, cols, [{j: x for j, x in enumerate(r) if x} for r in dense])

    @classmethod
    def from_sparse(cls, ring, rows: int, cols: int, sparse) -> "Matrix":
        """A matrix from one {column: value} mapping per row.

        Values are coerced into the ring; those that become zero are
        dropped.
        """
        coerce = ring.coerce
        kept = []
        for row in sparse:
            if row and (min(row) < 0 or max(row) >= cols):
                raise ShapeError(f"column index outside a {rows}x{cols} matrix")
            kept.append({j: x for j, v in row.items() if (x := coerce(v))})
        if len(kept) != rows:
            raise ShapeError(f"{len(kept)} rows given for a {rows}x{cols} matrix")
        m = cls.__new__(cls)
        m._set(ring, rows, cols, kept)
        return m

    def _set(self, ring, rows, cols, sparse):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.sparse = tuple(sparse)
        # stops at the first row that is not the identity's
        self._eye = rows == cols and all(len(r) == 1 and r.get(i) == 1
                                         for i, r in enumerate(self.sparse))
        self._rank = None

    @classmethod
    def identity(cls, ring, n: int) -> "Matrix":
        return cls.from_sparse(ring, n, n, [{i: 1} for i in range(n)])

    @property
    def entries(self) -> tuple:
        """Dense read-only view: a tuple of row tuples."""
        zero = self.ring.coerce(0)
        out = []
        for row in self.sparse:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        i, j = range(self.rows)[i], range(self.cols)[j]
        return self.sparse[i].get(j, self.ring.coerce(0))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse == other.sparse
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.sparse)))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def is_square(self) -> bool:
        return self.rows == self.cols


def compose(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a . b (apply b first when acting on columns).

    When one operand is an identity the other one is returned itself,
    not a copy; matrices are immutable, so that is safe, but callers
    must not count on a fresh object.
    """
    if a.ring != b.ring:
        raise KindMismatchError(f"{a.ring} vs {b.ring}")
    if a.cols != b.rows:
        raise ShapeError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    if a._eye:
        return b
    if b._eye:
        return a
    out = []
    for arow in a.sparse:
        acc = {}
        for k, aik in arow.items():
            for j, bkj in b.sparse[k].items():
                acc[j] = acc.get(j, 0) + aik * bkj
        out.append(acc)
    return Matrix.from_sparse(a.ring, a.rows, b.cols, out)


def _require_field(m: Matrix, op: str):
    if not m.ring.is_field:
        raise KindMismatchError(f"{op} requires field entries, got {m.ring}")


def _eliminate(m: Matrix):
    """Sparse forward elimination of the rows of m (m is not changed).

    Repeatedly takes the shortest live row and, within it, the column
    with the fewest live rows, preferring a +-1 entry; that entry
    clears its column from every other live row, and the pivot row is
    frozen as it stands.  Over Z only +-1 entries may pivot, so that
    the elimination stays unimodular: a row with no unit entry is
    parked until an update touches it.

    Returns (pivots, residual).  `pivots` lists (column, row) in
    elimination order; a frozen row has no entry in an earlier pivot
    column.  `residual` holds the parked rows left over (always empty
    over a field).
    """
    p = _modulus(m.ring)
    units_only = not m.ring.is_field
    minus_one = p - 1 if p is not None else -1
    rows = [dict(r) for r in m.sparse]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    # (length, row) entries go stale when a row changes; a changed row
    # is pushed again, so a popped entry counts only if its length holds.
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    parked: set[int] = set()
    pivots = []
    while heap:
        n, i = heapq.heappop(heap)
        row = rows[i]
        if row is None or i in parked or n != len(row):
            continue
        pj = pv = key = None
        for j, v in row.items():
            unit = v == 1 or v == minus_one
            if units_only and not unit:
                continue
            k = (not unit, len(col_rows[j]))
            if key is None or k < key:
                pj, pv, key = j, v, k
        if pj is None:
            parked.add(i)
            continue
        rows[i] = None
        pivots.append((pj, row))
        for j in row:
            col_rows[j].discard(i)
        if key[0]:
            inv = pow(pv, -1, p) if p is not None else _divide(1, pv)
        else:
            inv = pv  # +-1 is its own inverse
        for t in col_rows.pop(pj):
            dt = rows[t]
            f = dt.pop(pj) * inv
            if p is not None:
                f %= p
            elif type(f) is Fraction:
                f = _canonical(f)
            for j, v in row.items():
                if j == pj:
                    continue
                nv = dt.get(j, 0) - f * v
                if p is not None:
                    nv %= p
                elif type(nv) is Fraction:
                    nv = _canonical(nv)
                if nv:
                    if j not in dt:
                        col_rows[j].add(t)
                    dt[j] = nv
                elif j in dt:
                    del dt[j]
                    col_rows[j].discard(t)
            parked.discard(t)
            if dt:
                heapq.heappush(heap, (len(dt), t))
    return pivots, [rows[i] for i in parked]


def rank(m: Matrix) -> int:
    """Dimension of the column span, over Q or GF(p); kept on m."""
    _require_field(m, "rank")
    if m._rank is None:
        m._rank = len(_eliminate(m)[0])
    return m._rank


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of {x : m.x = 0} as column vectors (tuples).

    One vector per non-pivot column f: x_f = 1, the other non-pivot
    coordinates 0, pivot coordinates solved from the frozen pivot rows
    in reverse elimination order.
    """
    _require_field(m, "kernel_basis")
    ring = m.ring
    p = _modulus(ring)
    pivots, _ = _eliminate(m)
    pivot_cols = {c for c, _ in pivots}
    zero, one = ring.coerce(0), ring.coerce(1)
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        x = {f: one}
        for c, row in reversed(pivots):
            s = sum(v * x[j] for j, v in row.items() if j in x)
            if p is not None:
                s = -s * pow(row[c], -1, p) % p
            else:
                s = _divide(-s, row[c])
            if s:
                x[c] = s
        basis.append(tuple(x.get(j, zero) for j in range(m.cols)))
    return basis


class SmithForm(namedtuple("SmithForm", "diagonal")):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    __slots__ = ()

    def __new__(cls, diagonal: tuple[int, ...]):
        for a, b in zip(diagonal, diagonal[1:]):
            if b % a != 0:
                raise LinalgError(f"broken divisibility chain: {diagonal}")
        if any(d < 1 for d in diagonal):
            raise LinalgError(f"nonpositive invariant factor: {diagonal}")
        return super().__new__(cls, diagonal)

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _bezout(u: list[int], v: list[int], k: int, modulus: int):
    """A unimodular combination of u and v, mod `modulus`, that puts
    gcd(u[k], v[k]) at u[k] and 0 at v[k]; u is kept when u[k] | v[k]."""
    a, b = u[k], v[k]
    if b % a == 0:
        q = b // a
        return u, [(y - q * x) % modulus for x, y in zip(u, v)]
    g, s, t = _xgcd(a, b)
    p, q = a // g, b // g
    return ([(s * x + t * y) % modulus for x, y in zip(u, v)],
            [(p * y - q * x) % modulus for x, y in zip(u, v)])


def _divisibility_chain(diag: list[int]) -> list[int]:
    """The invariant factors of diag(d_1, ..., d_n), all d_i >= 1.

    Replacing a pair by its gcd and lcm keeps, for every prime, the
    multiset of exponents; after row i, d_i divides every later entry.
    """
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _snf_dense(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors of the integer rows left without unit pivots.

    The kernel over Q gives their rank r and the determinant D of a
    nonsingular r x r minor (the product of its pivots).  As d_1...d_r
    divides D, the block is diagonalized over Z/DZ, where no entry
    outgrows D, by extended-gcd row and column operations; each
    diagonal entry e stands for gcd(e, D), and d_i = gcd(d_i, D).
    """
    cols = {j: k for k, j in enumerate(sorted({j for d in rows for j in d}))}
    rows = [{cols[j]: v for j, v in d.items()} for d in rows]
    nr, nc = len(rows), len(cols)
    pivots, _ = _eliminate(Matrix.from_sparse(QQ, nr, nc, rows))
    r = len(pivots)
    det = int(abs(math.prod(row[c] for c, row in pivots)))
    a = [[d.get(j, 0) % det for j in range(nc)] for d in rows]
    diag = []
    for t in range(min(nr, nc)):
        nz = next(((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]), None)
        if nz is None:
            break
        pi, pj = nz
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # each pass that changes a[t][t] replaces it by a proper divisor
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    a[t], a[i] = _bezout(a[t], a[i], t, det)
            for j in range(t + 1, nc):
                if a[t][j]:
                    ct, cj = _bezout([row[t] for row in a], [row[j] for row in a], t, det)
                    for row, x, y in zip(a, ct, cj):
                        row[t], row[j] = x, y
            if not any(a[i][t] for i in range(t + 1, nr)):
                break
        diag.append(math.gcd(a[t][t], det))
    return (_divisibility_chain(diag) + [det] * r)[:r]


def smith_normal_form(m: Matrix) -> SmithForm:
    """Smith normal form of an integer matrix.

    Unit pivots are eliminated sparsely first (boundary matrices are
    mostly +-1): each one splits off an invariant factor 1.  The
    residual block, whose rows have no unit entry left, goes through
    the dense reduction modulo a minor's determinant.
    """
    if m.ring != ZZ:
        raise KindMismatchError(f"smith_normal_form requires Z entries, got {m.ring}")
    pivots, rest = _eliminate(m)
    return SmithForm(tuple([1] * len(pivots) + (_snf_dense(rest) if rest else [])))

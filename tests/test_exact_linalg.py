import itertools
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import apply, from_rows, reference_invariant_factors, reference_rank, zeros
from posheaf import exact_linalg as linalg_module
from posheaf.exact_linalg import (
    GF,
    QQ,
    ZZ,
    KindMismatchError,
    LinalgError,
    Matrix,
    ShapeError,
    SmithForm,
    compose,
    kernel_basis,
    rank,
    smith_normal_form,
)


M = from_rows


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(QQ, 2)) == 2

    def test_empty(self):
        assert rank(zeros(QQ, 0, 5)) == 0
        assert rank(zeros(QQ, 5, 0)) == 0

    def test_dependent_rows(self):
        m = M(QQ, [[1, 2], [2, 4]])
        # determinant 1*4 - 2*2 = 0, so rank < 2
        assert m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == 0
        assert rank(m) == 1

    def test_gf(self):
        assert rank(M(GF(7), [[1, 2], [2, 4]])) == 1
        assert rank(M(GF(2), [[1, 1], [1, 0]])) == 2

    def test_rank_drop_mod_p(self):
        # invertible over Q, singular mod 5
        m = [[1, 2], [3, 11]]
        assert rank(M(QQ, m)) == 2
        assert rank(M(GF(5), m)) == 1

    def test_integer_matrix_rejected(self):
        with pytest.raises(KindMismatchError):
            rank(Matrix.identity(ZZ, 2))

    def test_computed_once_per_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg_module, "_eliminate",
                            lambda m, fn=linalg_module._eliminate: calls.append(m) or fn(m))
        m = M(GF(7), [[1, 2], [2, 4]])
        assert rank(m) == rank(m) == 1
        assert rank(M(GF(7), [[1, 2], [2, 4]])) == 1  # an equal matrix is another object
        assert len(calls) == 2


class TestKernel:
    def test_single_relation(self):
        (v,) = kernel_basis(M(QQ, [[1, 1]]))
        assert v[0] == -v[1] != 0

    def test_identity_kernel_empty(self):
        assert kernel_basis(Matrix.identity(QQ, 3)) == []

    def test_substitute_back(self):
        m = M(QQ, [[1, 2], [2, 4]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert all(x == 0 for x in apply(m, basis[0]))

    def test_zero_rows(self):
        basis = kernel_basis(zeros(QQ, 0, 3))
        assert len(basis) == 3


class TestSmith:
    def test_diag_2_3(self):
        sf = smith_normal_form(M(ZZ, [[2, 0], [0, 3]]))
        assert sf.diagonal == (1, 6)

    def test_zero(self):
        sf = smith_normal_form(zeros(ZZ, 3, 4))
        assert sf.rank == 0 and sf.diagonal == ()

    def test_identity(self):
        sf = smith_normal_form(Matrix.identity(ZZ, 4))
        assert sf.diagonal == (1, 1, 1, 1)

    def test_torsion(self):
        sf = smith_normal_form(M(ZZ, [[2, 0], [0, 4]]))
        assert sf.diagonal == (2, 4)
        assert sf.torsion == (2, 4)

    def test_requires_integers(self):
        with pytest.raises(KindMismatchError):
            smith_normal_form(Matrix.identity(QQ, 2))


class TestCompose:
    def test_identity_neutral(self):
        m = M(QQ, [[1, 2], [3, 4]])
        assert compose(Matrix.identity(QQ, 2), m) == m
        assert compose(m, Matrix.identity(QQ, 2)) == m

    def test_identity_returns_the_other_operand(self):
        m = M(QQ, [[1, 2], [3, 4]])
        assert compose(Matrix.identity(QQ, 2), m) is m
        assert compose(m, Matrix.identity(QQ, 2)) is m
        with pytest.raises(ShapeError):  # the checks come first
            compose(Matrix.identity(QQ, 3), m)
        with pytest.raises(KindMismatchError):
            compose(Matrix.identity(GF(7), 2), m)

    def test_one_by_one(self):
        assert compose(M(QQ, [[2]]), M(QQ, [[3]])) == M(QQ, [[6]])

    def test_involution(self):
        swap = M(QQ, [[0, 1], [1, 0]])
        assert compose(swap, swap) == Matrix.identity(QQ, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compose(zeros(QQ, 2, 3), zeros(QQ, 2, 3))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            compose(Matrix.identity(QQ, 2), Matrix.identity(GF(7), 2))

    def test_empty_shapes(self):
        out = compose(zeros(QQ, 2, 0), zeros(QQ, 0, 3))
        assert (out.rows, out.cols) == (2, 3)
        assert out.is_zero()


def dense_product(a, b):
    """a . b by the textbook triple loop over the dense entries."""
    ring = a.ring
    return Matrix(ring, a.rows, b.cols,
                  [[sum((a[i, k] * b[k, j] for k in range(a.cols)), 0) for j in range(b.cols)]
                   for i in range(a.rows)])


RINGS = {"Q": QQ, "GF(7)": GF(7), "Z": ZZ}


@st.composite
def matrices(draw, ring, rows, cols):
    """A small matrix, an identity about one time in three when square."""
    if rows == cols and draw(st.integers(0, 2)) == 0:
        return Matrix.identity(ring, rows)
    entries = st.sampled_from([0, 0, 1, -1, 2, 3] + ([Fraction(1, 2)] if ring == QQ else []))
    return Matrix(ring, rows, cols, draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@st.composite
def composable_pairs(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(ring, r, k)), draw(matrices(ring, k, c))


@given(composable_pairs())
@settings(max_examples=200, deadline=None)
def test_compose_matches_dense_product(pair):
    # identity operands, 0xn and nx0 shapes included; Z goes through the
    # same product as the fields
    a, b = pair
    assert compose(a, b) == dense_product(a, b)


@given(st.sampled_from(sorted(RINGS)).flatmap(
    lambda name: st.integers(0, 4).flatmap(
        lambda r: st.integers(0, 4).flatmap(
            lambda c: matrices(RINGS[name], r, c)))))
@settings(max_examples=200, deadline=None)
def test_eye_flag_marks_exactly_the_identities(m):
    assert m._eye == (m == Matrix.identity(m.ring, m.rows))


def test_eye_flag_on_hand_picked_matrices():
    assert M(GF(7), [[8, 0], [0, 1]])._eye  # 8 is 1 mod 7
    assert M(QQ, [[Fraction(2, 2)]])._eye
    assert not M(QQ, [[1, 0], [0, 1], [0, 0]])._eye
    assert not M(QQ, [[1, 1], [0, 1]])._eye
    assert not M(QQ, [[0, 1], [1, 0]])._eye
    assert Matrix.identity(QQ, 0)._eye and not zeros(QQ, 0, 2)._eye


small_int_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_matches_smith_rank(rows):
    assert rank(M(QQ, rows)) == smith_normal_form(M(ZZ, rows)).rank


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_in_kernel_and_independent(rows):
    m = M(QQ, rows)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert all(x == 0 for x in apply(m, v))
    if basis:
        assembled = Matrix(QQ, len(basis), m.cols, basis)
        assert rank(assembled) == len(basis)


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_smith_matches_determinantal_divisors(rows):
    assert smith_normal_form(M(ZZ, rows)).diagonal == reference_invariant_factors(rows)


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.choice([-2, -1, 1, 2])
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return M(ZZ, m)


def test_smith_invariant_under_unimodular_ops():
    rng = random.Random(99)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = M(ZZ, [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        u = _random_unimodular(rng, r)
        v = _random_unimodular(rng, c)
        assert smith_normal_form(compose(compose(u, m), v)) == smith_normal_form(m)


def test_primality_checked():
    with pytest.raises(LinalgError):
        GF(6)
    with pytest.raises(LinalgError):
        GF(2**31 + 11)
    assert GF(2).p == 2


def test_rational_entries_stay_reduced():
    m = M(QQ, [["2/4", "-6/4"]])
    assert str(m[0, 0]) == "1/2"
    assert str(m[0, 1]) == "-3/2"


def _check_against_reference(rows):
    cols = len(rows[0])
    m = M(QQ, rows)
    r = reference_rank(rows)
    assert rank(m) == r
    assert len(kernel_basis(m)) == cols - r
    diagonal = smith_normal_form(M(ZZ, rows)).diagonal
    assert len(diagonal) == r
    for p in (2, 3, 5, 7):
        rp = reference_rank(rows, p)
        assert rank(M(GF(p), rows)) == rp
        assert len(kernel_basis(M(GF(p), rows))) == cols - rp
        assert rp == sum(1 for d in diagonal if d % p)


sparse_int_matrices = st.integers(1, 9).flatmap(
    lambda r: st.integers(1, 9).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 6]), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(sparse_int_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_kernel_and_smith_match_dense_reference(rows):
    _check_against_reference(rows)


def test_large_sparse_input_matches_dense_reference():
    # Boundary matrix of 90 random triangles on 16 vertices: 120 x 90 =
    # 10,800 entries, 270 of them nonzero.  A few triangles are scaled
    # by 2 or 3, so the Smith form has a residual without unit pivots.
    rng = random.Random(5)
    edges = list(itertools.combinations(range(16), 2))
    triangles = rng.sample(list(itertools.combinations(range(16), 3)), 90)
    rows = [[0] * len(triangles) for _ in edges]
    for c, (a, b, d) in enumerate(triangles):
        scale = rng.choice([1] * 10 + [2, 3])
        for sign, e in ((1, (b, d)), (-1, (a, d)), (1, (a, b))):
            rows[edges.index(e)][c] = sign * scale
    _check_against_reference(rows)


@given(sparse_int_matrices)
@settings(max_examples=40, deadline=None)
def test_dense_and_sparse_construction_agree(rows):
    m = M(QQ, rows)
    s = Matrix.from_sparse(QQ, m.rows, m.cols,
                           [{j: x for j, x in enumerate(row)} for row in rows])
    assert m.entries == tuple(tuple(row) for row in rows)
    assert m == s and hash(m) == hash(s)
    assert all(type(x) is int for row in m.entries for x in row)


@pytest.mark.parametrize("make", [
    lambda: Matrix(QQ, 1, 1, [[0.1]]),
    lambda: ZZ.coerce(2.5),
    lambda: GF(7).coerce(2.5),
    lambda: ZZ.coerce("1.5"),
], ids=["float-in-QQ-matrix", "float-to-ZZ", "float-to-GF7", "fractional-string-to-ZZ"])
def test_inexact_scalars_rejected(make):
    with pytest.raises(LinalgError):
        make()


OFF_GRAMMAR = {
    "exponent": "1e5000000",
    "decimal-object": Decimal("1e5000000"),
    "padded": " 7 ",
    "underscore": "1_000",
    "arabic-indic-digit": "\u0663",
}
COERCIONS = {
    "QQ": QQ.coerce,
    "ZZ": ZZ.coerce,
    "GF7": GF(7).coerce,
    "QQ-matrix": lambda x: Matrix(QQ, 1, 1, [[x]]),
    "GF7-matrix": lambda x: Matrix(GF(7), 1, 1, [[x]]),
    "GF7-sparse": lambda x: Matrix.from_sparse(GF(7), 1, 1, [{0: x}]),
}


@pytest.mark.parametrize("coerce", COERCIONS.values(), ids=COERCIONS.keys())
@pytest.mark.parametrize("value", OFF_GRAMMAR.values(), ids=OFF_GRAMMAR.keys())
def test_off_grammar_scalars_are_refused_at_once(coerce, value):
    """A scalar is an int, a Fraction or a string of the documents'
    grammar; `Fraction()` alone would read "1e5000000" as a
    16,609,641-bit integer, and " 7 ", "1_000" and Arabic-Indic 3 as
    numbers."""
    start = time.perf_counter()
    with pytest.raises(LinalgError):
        coerce(value)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text, q, residue", [
    ("-6/4", Fraction(-3, 2), None), ("+7", 7, 0), ("007", 7, 0), ("0/5", 0, 0),
    ("-6/3", -2, 5), ("+0", 0, 0),
])
def test_grammar_strings_come_out_canonical(text, q, residue):
    x = QQ.coerce(text)
    assert x == q and _canonical_q(x)
    if residue is None:
        with pytest.raises(LinalgError, match=r"not a GF\(7\) residue: -3/2"):
            GF(7).coerce(text)
        with pytest.raises(LinalgError, match="not an integer: -3/2"):
            ZZ.coerce(text)
    else:
        assert GF(7).coerce(text) == residue and type(GF(7).coerce(text)) is int
        assert ZZ.coerce(text) == q and type(ZZ.coerce(text)) is int
    assert Matrix(QQ, 1, 1, [[text]]) == Matrix(QQ, 1, 1, [[q]])


REFUSALS = {
    "unparsable-scalar": (lambda: QQ.coerce("x"), LinalgError,
                          "bad scalar 'x': want an integer or a fraction like '-1/2'"),
    "column-outside": (lambda: Matrix.from_sparse(QQ, 1, 2, [{2: 1}]), ShapeError,
                       "column index outside a 1x2 matrix"),
    "too-few-rows": (lambda: Matrix.from_sparse(QQ, 2, 2, [{}]), ShapeError,
                     "1 rows given for a 2x2 matrix"),
    "negative-shape": (lambda: Matrix.from_sparse(QQ, 0, -1, []), ShapeError,
                       "negative shape 0x-1"),
    "broken-divisibility": (lambda: SmithForm((2, 3)), LinalgError,
                            "broken divisibility chain: (2, 3)"),
    "nonpositive-factor": (lambda: SmithForm((0,)), LinalgError,
                           "nonpositive invariant factor: (0,)"),
}


@pytest.mark.parametrize("make, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_name_their_cause(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


class _Int(int):
    """Not of type int, so `coerce` takes its general path."""


class _Fraction(Fraction):
    """Not of type Fraction, so `coerce` takes its general path."""


@given(st.integers(-10**40, 10**40), st.integers(1, 10**12),
       st.sampled_from([QQ, ZZ, GF(2), GF(7), GF(2**31 - 1)]))
@settings(max_examples=200, deadline=None)
def test_coerce_fast_path_matches_general_path(n, d, ring):
    fast, general = ring.coerce(n), ring.coerce(_Int(n))
    assert fast == general and type(fast) is type(general) is int
    if ring == QQ:
        q = Fraction(n, d)
        for x in (ring.coerce(q), ring.coerce(_Fraction(n, d)), ring.coerce(f"{n}/{d}")):
            assert x == q and _canonical_q(x)


def _canonical_q(x) -> bool:
    """x is an element of Q in canonical form: an int iff integral,
    otherwise a Fraction with denominator > 1; never a float or a bool."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


Q_ENTRIES = {
    "integral": [0, 0, 0, 1, -1, 2, -3, 6],
    "non-integral": [0, 0, 0, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3), Fraction(-7, 4)],
    "mixed": [0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 1)],
}
q_matrices = st.sampled_from(sorted(Q_ENTRIES)).flatmap(
    lambda kind: st.integers(1, 7).flatmap(
        lambda r: st.integers(1, 7).flatmap(
            lambda c: st.lists(
                st.lists(st.sampled_from(Q_ENTRIES[kind]), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)


@given(q_matrices)
@settings(max_examples=150, deadline=None)
def test_rational_results_are_exact_and_canonical(rows):
    # Fraction(4, 1) is integral, so it must come out as the int 4
    m = M(QQ, rows)
    assert all(_canonical_q(x) for row in m.entries for x in row)
    assert rank(m) == reference_rank(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert all(_canonical_q(x) for x in v)
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in rows)
        assert all(_canonical_q(x) and x == 0 for x in apply(m, v))
    assert all(_canonical_q(x) for x in apply(m, [Fraction(j + 1, 3) for j in range(m.cols)]))
    mt = M(QQ, [list(col) for col in zip(*rows)])
    for product in (compose(m, mt), compose(mt, m)):
        assert all(_canonical_q(x) for row in product.entries for x in row)
        assert all(_canonical_q(x) for row in product.sparse for x in row.values())
    if basis:
        k = Matrix(QQ, m.cols, len(basis), [list(col) for col in zip(*basis)])
        assert compose(m, k).is_zero()


def test_import_does_not_load_dataclasses_or_inspect():
    # every CLI run pays for these: dataclasses imports inspect, and the
    # two took about half of the package's own import time
    import posheaf

    src = os.path.dirname(os.path.dirname(posheaf.__file__))
    code = ("import sys; before = set(sys.modules); import posheaf.cli; "
            "sys.exit(bool({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_import_does_not_load_numpy():
    import posheaf

    src = os.path.dirname(os.path.dirname(posheaf.__file__))
    code = "import sys, posheaf; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

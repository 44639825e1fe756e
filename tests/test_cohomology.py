"""Cohomology and homology tests.

Expected values here come from three independent sources: hand computation
on tiny complexes, Euler characteristic bookkeeping, and cross-checks
between the sheaf-theoretic and simplicial routes for constant
coefficients.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    bing_house_poset,
    bing_house_with_apexes,
    circle_with_apex,
    four_point_circle,
    p5_gadget,
    face_poset,
    p5_poset,
    simplicial_complex,
)
from gen import (
    from_rows,
    gauged,
    gauged_suite,
    global_sections,
    random_poset,
    random_sheaf,
    rescaled,
    supported_sheaf,
)
from posheaf import cohomology as cohomology_module
from posheaf.cohomology import (
    CochainComplex,
    ComplexError,
    field_cohomology,
    integral_homology,
    is_acyclic,
    reduce_homology,
    roos_complex,
    sheaf_complex,
    simplicial_cochain_complex,
)
from posheaf.exact_linalg import GF, QQ
from posheaf.poset import build_poset, order_complex, simplicial_model, simplicial_vertices
from posheaf.sheaf import SheavedSpace, constant_sheaf
from posheaf.simplify import core, find_beats, sheaf_cohomology, simplify_pipeline


# the minimal 6-vertex triangulation of the real projective plane
RP2 = [
    ("1", "2", "6"), ("2", "3", "4"), ("1", "3", "5"),
    ("1", "2", "3"), ("1", "4", "6"), ("1", "4", "5"),
    ("2", "4", "5"), ("2", "5", "6"), ("3", "4", "6"),
    ("3", "5", "6"),
]
# its suspension: the Z/2 of H_1 moves to H_2
SUSPENDED_RP2 = [t + (pole,) for t in RP2 for pole in ("n", "s")]


def random_complexes():
    """The facets of 300 seeded random complexes on up to 7 vertices."""
    rng = random.Random(53)
    for _ in range(300):
        vertices = [str(v) for v in range(rng.randint(1, 7))]
        yield [
            tuple(rng.sample(vertices, rng.randint(1, min(len(vertices), 4))))
            for _ in range(rng.randint(1, 8))
        ]


def space(p, f):
    return SheavedSpace(p, f)


class TestRoosComplex:
    def test_point(self):
        p = build_poset(["a"], [])
        c = roos_complex(space(p, constant_sheaf(p, QQ, 2)))
        assert c.degrees == (2,)
        assert field_cohomology(c).betti == (2,)

    def test_degrees_count_chains_times_stalks(self):
        p = p5_poset()
        c = roos_complex(space(p, constant_sheaf(p, QQ, 1)))
        k = order_complex(p)
        assert c.degrees == k.counts()

    def test_d_squared_random(self):
        rng = random.Random(19)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 8))
            f = random_sheaf(rng, p, rng.choice([QQ, GF(2), GF(7)]))
            c = roos_complex(space(p, f))
            c.check_d_squared()

    def test_zero_sheaf(self):
        p = p5_poset()
        f = constant_sheaf(p, QQ, 0)
        h = sheaf_cohomology(space(p, f))
        assert h.betti_trimmed() == ()


class TestSheafCohomology:
    def test_circle_constant(self):
        p = four_point_circle()
        h = sheaf_cohomology(space(p, constant_sheaf(p, QQ)))
        assert h.betti_trimmed() == (1, 1)

    def test_circle_with_apex_is_cone(self):
        p = circle_with_apex()
        h = sheaf_cohomology(space(p, constant_sheaf(p, QQ)))
        assert h.betti_trimmed() == (1,)

    def test_gadget_constant(self):
        p = p5_gadget()
        h = sheaf_cohomology(space(p, constant_sheaf(p, GF(3))))
        assert h.betti_trimmed() == (1,)

    def test_h0_equals_global_sections(self):
        rng = random.Random(29)
        for _ in range(30):
            p = random_poset(rng, rng.randint(1, 8))
            f = random_sheaf(rng, p, rng.choice([QQ, GF(5)]))
            sp = space(p, f)
            h = sheaf_cohomology(sp)
            h0 = h.betti[0] if h.betti else 0
            assert h0 == len(global_sections(sp))

    def test_euler_characteristic_alternating_sum(self):
        rng = random.Random(37)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 7))
            f = random_sheaf(rng, p, QQ)
            c = roos_complex(space(p, f))
            h = field_cohomology(c)
            assert sum((-1) ** j * n for j, n in enumerate(c.degrees)) == sum(
                (-1) ** j * b for j, b in enumerate(h.betti)
            )

    def test_skyscraper_at_maximal(self):
        # the strict downset of "bc" is the two-point antichain {b, c},
        # so the skyscraper picks up its reduced connectivity in degree 1
        p = p5_poset()
        h = sheaf_cohomology(space(p, supported_sheaf(p, {"bc"}, QQ, w=2)))
        assert h.betti_trimmed() == (0, 2)

    def test_mccord_constant_matches_simplicial(self):
        rng = random.Random(43)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 8))
            ring = rng.choice([QQ, GF(2), GF(3)])
            h = sheaf_cohomology(space(p, constant_sheaf(p, ring)))
            k = order_complex(p)
            hs = field_cohomology(simplicial_cochain_complex(k, ring))
            assert h.betti_trimmed() == hs.betti_trimmed()


def random_facets(rng):
    """Up to 8 random simplices of dimension <= 3 on 3 to 7 vertices."""
    vertices = [str(v) for v in range(rng.randint(3, 7))]
    return [tuple(rng.sample(vertices, rng.randint(1, min(len(vertices), 4))))
            for _ in range(rng.randint(1, 8))]


def random_face_space(rng, p, ring):
    """A gauged random sheaf on p, rescaled to non-integral maps over Q."""
    sp = space(p, random_sheaf(rng, p, ring))
    return rescaled(rng, sp) if ring == QQ else sp


def check_cellular_against_roos(sp):
    """The cellular complex, the sheaf's complex on the face poset's own
    simplicial complex, agrees with the Roos complex, degree for degree."""
    p, f = sp.poset, sp.sheaf
    vertices = simplicial_vertices(p)
    assert vertices is not None
    cellular = sheaf_complex(sp, simplicial_model(p))
    assert cellular.degrees == tuple(
        sum(f.stalk_dim[x] for x in p.elements if len(vertices[x]) == j + 1)
        for j in range(len(cellular.degrees)))
    roos = roos_complex(sp)
    cellular.check_d_squared()
    roos.check_d_squared()
    h = sheaf_cohomology(sp)
    assert h == field_cohomology(cellular)
    assert h.betti == field_cohomology(roos).betti


def digon():
    """The boundary of the triangle abc with a second edge on a and b:
    every downset has the right size, but two edges share their vertices."""
    p = face_poset([("a", "b"), ("b", "c"), ("a", "c")])
    return build_poset(p.elements + ("ab",), p.covers | {("a", "ab"), ("b", "ab")})


class TestCellularRoute:
    def test_recognises_the_house(self):
        p = bing_house_poset()
        vertices = simplicial_vertices(p)
        assert vertices == {x: frozenset(x.split("|")) for x in p.elements}

    @pytest.mark.parametrize("poset", [
        four_point_circle,
        bing_house_with_apexes,
        lambda: build_poset(["a", "b"], [("a", "b")]),
        digon,
        lambda: build_poset([], []),
        # V is one to one, but the triangle's downset lacks its edges
        lambda: build_poset(["a", "b", "c", "abc"], [("a", "abc"), ("b", "abc"), ("c", "abc")]),
    ], ids=["circle", "house-with-apexes", "2-chain", "digon", "empty", "bare-triangle"])
    def test_rejects_non_simplicial(self, poset):
        assert simplicial_vertices(poset()) is None

    def test_random_gauged_sheaves_seeded(self):
        rng = random.Random(61)
        for _ in range(120):
            p = face_poset(random_facets(rng))
            check_cellular_against_roos(random_face_space(rng, p, rng.choice([QQ, GF(2), GF(7)])))

    def test_house_random_sheaf(self):
        rng = random.Random(67)
        p = bing_house_poset()
        check_cellular_against_roos(space(p, random_sheaf(rng, p, GF(7))))

    @given(
        facets=st.integers(3, 7).flatmap(lambda n: st.lists(
            st.lists(st.sampled_from([str(v) for v in range(n)]),
                     min_size=1, max_size=4, unique=True),
            min_size=1, max_size=8)),
        seed=st.integers(0, 10**6),
        ring=st.sampled_from([QQ, GF(2), GF(7)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_gauged_sheaves(self, facets, seed, ring):
        p = face_poset(facets)
        check_cellular_against_roos(random_face_space(random.Random(seed), p, ring))


def unreduced(sp):
    """The slow reference: the Roos complex of the space as given."""
    return field_cohomology(roos_complex(sp))


def sheaves_on(rng, p, ring):
    """A gauged random sheaf, and the constant, skyscraper and
    strict-down sheaves at a random element."""
    s = rng.choice(p.elements)
    return [random_sheaf(rng, p, ring), constant_sheaf(p, ring, rng.randint(1, 2)),
            supported_sheaf(p, {s}, ring), supported_sheaf(p, p.strictly_below(s), ring)]


def refused_upbeats(sp):
    """Elements with a unique upper cover that `core` does not remove
    there, because the map to that cover is not invertible."""
    beats = {b.element for b in find_beats(sp)}
    return [e for e in sp.poset.elements
            if len(sp.poset.upper_covers(e)) == 1 and e not in beats]


class TestComputedOnTheCore:
    """`sheaf_cohomology` builds its complex on the beat core; the whole
    result, padding included, equals the unreduced Roos computation."""

    def test_seeded_suites(self):
        rng = random.Random(211)
        reduced = refused = 0
        for _ in range(80):
            p = random_poset(rng, rng.randint(1, 9))
            for f in sheaves_on(rng, p, rng.choice([QQ, GF(2), GF(7)])):
                sp = space(p, f)
                assert sheaf_cohomology(sp) == unreduced(sp)
                reduced += bool(core(sp)[1].steps)
                refused += bool(refused_upbeats(sp))
        assert reduced >= 240 and refused >= 70

    @pytest.mark.parametrize("poset", [
        circle_with_apex,
        # a cone point over one facet is a downbeat
        lambda: build_poset(face_poset(RP2).elements + ("apex",),
                            face_poset(RP2).covers | {("1|2|6", "apex")}),
    ], ids=["circle-with-apex", "rp2-with-apex"])
    def test_route_switches_to_cellular_on_the_core(self, poset):
        p = poset()
        assert simplicial_vertices(p) is None
        rng = random.Random(223)
        for ring in (QQ, GF(2), GF(7)):
            sp = space(p, constant_sheaf(p, ring))
            assert simplicial_vertices(core(sp)[0].poset) is not None
            assert sheaf_cohomology(sp) == unreduced(sp)
            sp = space(p, random_sheaf(rng, p, ring))
            assert sheaf_cohomology(sp) == unreduced(sp)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 9),
        ring=st.sampled_from([QQ, GF(2), GF(7)]),
        which=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_unreduced_roos(self, seed, n, ring, which):
        rng = random.Random(seed)
        p = random_poset(rng, n)
        sp = space(p, sheaves_on(rng, p, ring)[which])
        assert sheaf_cohomology(sp) == unreduced(sp)


class TestCoreKeepsItsCohomology:
    """A core keeps its own cohomology, unpadded, and each input pads it
    to its own longest chain: the first and every repeated result on an
    input, its core and its reduced space equal the Roos computation on
    that space as given, with one complex per distinct core."""

    ORDERS = list(itertools.permutations(("input", "core", "reduced")))

    @staticmethod
    def count_complexes(monkeypatch) -> list:
        calls = []
        field = cohomology_module.field_cohomology
        monkeypatch.setattr(cohomology_module, "field_cohomology",
                            lambda c: calls.append(c) or field(c))
        return calls

    @staticmethod
    def assert_kept(sp, order, calls):
        """Returns whether the core is shorter than the input's longest
        chain, and the number of distinct cores."""
        c = core(sp)[0]
        named = {"input": sp, "core": c, "reduced": simplify_pipeline(sp, "acyclic-down")[0]}
        expected = {name: unreduced(x) for name, x in named.items()}
        del calls[:]
        for name in order:
            for _ in range(2):
                assert sheaf_cohomology(named[name]) == expected[name], name
        for name in ("core", "reduced"):
            assert expected[name].betti_trimmed() == expected["input"].betti_trimmed()
        cores = {id(core(x)[0]): core(x)[0] for x in named.values()}
        assert len(calls) == len(cores)
        for x in cores.values():
            assert x._cohomology == unreduced(x)
        if sp is not c:
            assert sp._cohomology is None
        return len(expected["core"].betti) < len(expected["input"].betti), len(cores)

    def test_seeded(self, monkeypatch):
        calls = self.count_complexes(monkeypatch)
        short = passed = 0
        for k, sp in enumerate(gauged_suite(227, 60)):
            shorter, cores = self.assert_kept(sp, self.ORDERS[k % 6], calls)
            short += shorter
            passed += cores == 2  # the pass removed something
        assert short >= 30 and passed >= 2

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 10),
        ring=st.sampled_from([QQ, GF(7)]),
        k=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis(self, seed, n, ring, k):
        rng = random.Random(seed)
        p = random_poset(rng, n)
        sp = space(p, random_sheaf(rng, p, ring))
        if ring == QQ:
            sp = rescaled(rng, sp)
        with pytest.MonkeyPatch.context() as mp:
            self.assert_kept(sp, self.ORDERS[k], self.count_complexes(mp))

    @pytest.mark.parametrize("core_first", [False, True])
    def test_input_padded_core_unpadded(self, core_first):
        p = circle_with_apex()
        for ring in (QQ, GF(7)):
            sp = space(p, gauged(random.Random(229), constant_sheaf(p, ring, 2)))
            c = core(sp)[0]
            assert len(c.poset) == 1
            sheaf_cohomology(c if core_first else sp)
            assert sheaf_cohomology(sp).betti == (2, 0, 0) and sheaf_cohomology(c).betti == (2,)
            # a field result, padded or not, carries no torsion
            assert sheaf_cohomology(sp).torsion == sheaf_cohomology(c).torsion == ()
            assert c._cohomology.betti == (2,) and sp._cohomology is None


class TestComplexValidation:
    def test_library_complexes_are_not_rechecked(self, monkeypatch):
        # d^2 = 0 holds by construction from a commuting sheaf; the
        # tests keep check_d_squared as the reference
        calls = []
        monkeypatch.setattr(CochainComplex, "check_d_squared", lambda c: calls.append(c))
        for p in (four_point_circle(), bing_house_poset(), p5_gadget()):
            sheaf_cohomology(space(p, constant_sheaf(p, GF(7))))
        assert calls == []

    def test_d_squared_rejected(self):
        d0 = from_rows(QQ, [[1]])
        d1 = from_rows(QQ, [[1]])
        c = CochainComplex((1, 1, 1), (d0, d1))
        with pytest.raises(ComplexError):
            c.check_d_squared()

    def test_shape_chain_mismatch(self):
        with pytest.raises(ComplexError):
            CochainComplex((1, 2), (from_rows(QQ, [[1]]),))

    def test_one_differential_per_degree_pair(self):
        with pytest.raises(ComplexError) as info:
            CochainComplex((1, 1), ())
        assert str(info.value) == "need one differential per consecutive degree pair"


class TestSimplicialHomology:
    def test_two_points(self):
        k = simplicial_complex([("a",), ("b",)])
        h = integral_homology(k)
        assert h.betti_trimmed() == (2,)

    def test_circle_integral(self):
        k = order_complex(four_point_circle())
        h = integral_homology(k)
        assert h.betti_trimmed() == (1, 1)
        assert h.torsion_trimmed() == ()

    def test_projective_plane(self):
        # torsion shows only over Z and GF(2)
        k = simplicial_complex(RP2)
        h = integral_homology(k)
        assert h.betti == (1, 0, 0)
        assert h.torsion == ((), (2,), ())
        hq = field_cohomology(simplicial_cochain_complex(k, QQ))
        assert hq.betti_trimmed() == (1,)
        h2 = field_cohomology(simplicial_cochain_complex(k, GF(2)))
        assert h2.betti_trimmed() == (1, 1, 1)

    def test_sphere_boundary_of_tetrahedron(self):
        k = simplicial_complex(
            [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
        )
        h = integral_homology(k)
        assert h.betti == (1, 0, 1)
        assert h.torsion_trimmed() == ()

    def test_field_betti_matches_integral_over_q(self):
        rng = random.Random(47)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 7))
            k = order_complex(p)
            if not k.counts():
                continue
            hz = integral_homology(k)
            hq = field_cohomology(simplicial_cochain_complex(k, QQ))
            assert hz.betti_trimmed() == hq.betti_trimmed()


class TestAcyclicity:
    def test_empty_is_not_acyclic(self):
        assert not is_acyclic(simplicial_complex([]))

    def test_point_is_acyclic(self):
        assert is_acyclic(simplicial_complex([("a",)]))

    def test_cone_is_acyclic(self):
        assert is_acyclic(order_complex(circle_with_apex()))

    def test_circle_is_not(self):
        assert not is_acyclic(order_complex(four_point_circle()))

    def test_two_points_not_acyclic(self):
        assert not is_acyclic(simplicial_complex([("a",), ("b",)]))

    def test_rp2_not_acyclic_despite_rational_acyclicity(self):
        k = simplicial_complex(RP2)
        assert field_cohomology(simplicial_cochain_complex(k, QQ)).betti_trimmed() == (1,)
        assert not is_acyclic(k)

    def test_reduced_shifts_h0(self):
        k = order_complex(p5_poset())
        u = integral_homology(k)
        r = reduce_homology(u)
        assert u.betti[0] == r.betti[0] + 1
        assert u.betti[1:] == r.betti[1:]


class TestUniversalCoefficients:
    """dim H_j(K; GF(p)) = b_j + t_j(p) + t_{j-1}(p), where b_j is the
    rank of H_j(K; Z) and t_j(p) counts its invariant factors that p
    divides: the field route checks where the integral route puts torsion."""

    @staticmethod
    def check(k):
        h = integral_homology(k)
        for p in (2, 3, 5):
            t = [sum(1 for d in tors if d % p == 0) for tors in h.torsion]
            expected = tuple(b + t[j] + (t[j - 1] if j else 0) for j, b in enumerate(h.betti))
            assert field_cohomology(simplicial_cochain_complex(k, GF(p))).betti == expected

    @pytest.mark.parametrize("facets, torsion", [
        (RP2, ((), (2,))),
        (SUSPENDED_RP2, ((), (), (2,))),
    ])
    def test_projective_plane_and_suspension(self, facets, torsion):
        for k in (simplicial_complex(facets), order_complex(face_poset(facets))):
            assert integral_homology(k).torsion_trimmed() == torsion
            self.check(k)

    def test_random_complexes(self):
        for facets in random_complexes():
            self.check(simplicial_complex(facets))


class TestSimplicialModel:
    """Integral homology of a face poset on its own simplicial complex
    equals that of its order complex, the barycentric subdivision (the
    slow reference), torsion included."""

    @staticmethod
    def check(p):
        assert integral_homology(simplicial_model(p)) == integral_homology(order_complex(p))

    def test_random_complexes(self):
        for facets in random_complexes():
            self.check(face_poset(facets))

    @pytest.mark.parametrize("facets, torsion", [
        (RP2, ((), (2,))),
        (SUSPENDED_RP2, ((), (), (2,))),
    ], ids=["rp2", "suspended-rp2"])
    def test_projective_plane_and_suspension(self, facets, torsion):
        p = face_poset(facets)
        self.check(p)
        assert integral_homology(simplicial_model(p)).torsion_trimmed() == torsion

    def test_house_is_acyclic_on_its_faces(self):
        assert is_acyclic(simplicial_model(bing_house_poset()))

    @given(facets=st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([str(v) for v in range(n)]),
                 min_size=1, max_size=4, unique=True),
        min_size=1, max_size=8)))
    @settings(max_examples=60, deadline=None)
    def test_random_face_posets(self, facets):
        self.check(face_poset(facets))

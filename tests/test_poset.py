import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from fixtures import (
    bing_house_poset,
    bing_house_with_apexes,
    circle_with_apex,
    face_poset,
    four_point_circle,
    p5_gadget,
    p5_poset,
    simplicial_complex,
)
from gen import (
    chain_document,
    posets_isomorphic,
    random_ideal,
    random_poset,
    rebuilt_subposet,
    zigzag_poset,
)
from posheaf import sheaf as sheaf_module
from posheaf.documents import document_space, parse_space
from posheaf.exact_linalg import QQ
from posheaf.poset import (
    MAX_CHAINS,
    ChainCountError,
    CycleError,
    PosetError,
    RedundantCoverError,
    UnknownElementError,
    _unlink,
    build_poset,
    chain_count,
    induced_subposet,
    leq,
    order_complex,
    simplicial_model,
    simplicial_vertices,
)
from posheaf.sheaf import (
    SheavedSpace,
    _WorkingSubspace,
    check_commutativity,
    constant_sheaf,
    restrict,
)
from posheaf.simplify import core, poset_core
from test_cohomology import RP2, SUSPENDED_RP2, random_complexes


def chain(*names):
    return build_poset(names, list(zip(names, names[1:])))


def downset(p, s):
    return induced_subposet(p, p.strictly_below(s))


def upset(p, s):
    return induced_subposet(p, p.strictly_above(s))


def without(p, s):
    """p less s, as the library removes an element: `restrict` takes it
    out of a working subspace (`_unlink`) and reads the subposet off the
    tables (`_subposet_without`)."""
    return restrict(SheavedSpace(p, constant_sheaf(p, QQ)), set(p.elements) - {s}).poset


class TestBuild:
    def test_two_chain(self):
        p = chain("a", "b")
        assert leq(p, "a", "b") and not leq(p, "b", "a")

    def test_self_loop_is_cycle(self):
        with pytest.raises(CycleError):
            build_poset(["a"], [("a", "a")])

    def test_longer_cycle(self):
        with pytest.raises(CycleError):
            build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_redundant_cover(self):
        with pytest.raises(RedundantCoverError):
            build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            build_poset(["a"], [("a", "b")])

    def test_unknown_lower_endpoint(self):
        with pytest.raises(UnknownElementError) as info:
            build_poset(["b"], [("a", "b")])
        assert str(info.value) == "unknown element in cover: 'a'"

    def test_duplicate_names(self):
        with pytest.raises(Exception):
            build_poset(["a", "a"], [])

    def test_duplicates_among_many_names_are_found_in_linear_time(self):
        names = [f"e{i:05d}" for i in range(80_000)]
        t0 = time.perf_counter()
        with pytest.raises(PosetError, match=r"duplicate element names: \['e00007', 'e12345'\]"):
            build_poset(names + ["e12345", "e00007", "e12345"], [])
        # counting each name's copies one name at a time took minutes here
        assert time.perf_counter() - t0 < 2

    @pytest.mark.parametrize("derive, at, kept", [
        (downset, 999, slice(None, 999)),
        # 990 elements leave by the bridge rule, for 10 kept
        (downset, 10, slice(None, 10)),
        (upset, 10, slice(11, None)),
    ], ids=["downset-of-top", "downset-of-11th", "upset-of-11th"])
    def test_downset_of_a_long_chain_is_found_in_quadratic_time(self, derive, at, kept):
        names = [f"c{i:04d}" for i in range(1_000)]
        p = build_poset(names, list(zip(names, names[1:])))
        t0 = time.perf_counter()
        d = derive(p, names[at])
        # building the common set of every comparable pair took over 10 s
        assert time.perf_counter() - t0 < 2
        names = names[kept]
        assert d.elements == tuple(names)
        assert d.covers == frozenset(zip(names, names[1:]))

    def test_empty_poset(self):
        p = build_poset([], [])
        assert len(p) == 0
        assert order_complex(p).counts() == ()


class TestOrderQueries:
    def test_leq_antichain(self):
        p = build_poset(["a", "b"], [])
        assert not leq(p, "a", "b") and not leq(p, "b", "a")
        assert leq(p, "a", "a")

    def test_leq_circle(self):
        p = four_point_circle()
        assert leq(p, "a", "x")
        assert not leq(p, "x", "a")
        assert not leq(p, "x", "y")

    def test_unknown(self):
        with pytest.raises(UnknownElementError):
            leq(four_point_circle(), "a", "zzz")

    def test_downset_minimal_empty(self):
        assert len(downset(four_point_circle(), "a")) == 0

    def test_downset_chain(self):
        p = chain("a", "b", "c")
        assert downset(p, "c") == chain("a", "b")

    def test_downset_of_gadget_apex(self):
        assert downset(p5_gadget(), "s") == p5_poset()

    def test_upset_maximal_empty(self):
        assert len(upset(four_point_circle(), "x")) == 0

    def test_upset_chain(self):
        assert upset(chain("a", "b", "c"), "a") == chain("b", "c")

    def test_upset_circle_antichain(self):
        u = upset(four_point_circle(), "a")
        assert set(u.elements) == {"x", "y"} and not u.covers


def is_downbeat(p, s) -> bool:
    return len(p.lower_covers(s)) == 1


def is_upbeat(p, s) -> bool:
    return len(p.upper_covers(s)) == 1


class TestBeats:
    """Order-theoretic beats; which of them the library may remove from a
    sheaved space is `simplify.RULES`'s call (tests/test_simplify.py)."""

    def test_chain_top_is_downbeat(self):
        p = chain("a", "b")
        assert is_downbeat(p, "b")
        assert not is_downbeat(p, "a")  # nothing below

    def test_chain_bottom_is_upbeat(self):
        p = chain("a", "b")
        assert is_upbeat(p, "a")
        assert not is_upbeat(p, "b")

    def test_circle_has_no_beats(self):
        p = four_point_circle()
        for e in p.elements:
            assert not is_downbeat(p, e)
            assert not is_upbeat(p, e)

    def test_degree_one_equivalent_to_domination(self):
        # Stong: one lower (upper) cover iff dominated from below (above)
        rng = random.Random(7)
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 9))
            for s in p.elements:
                below = p.strictly_below(s)
                dominated = any(
                    all(leq(p, b, a) for b in below) for a in below
                )
                assert is_downbeat(p, s) == dominated
                above = p.strictly_above(s)
                dominated_up = any(
                    all(leq(p, a, b) for b in above) for a in above
                )
                assert is_upbeat(p, s) == dominated_up


def cone_over_house():
    """Bing's house with one top above its maximal elements."""
    house = bing_house_poset()
    return build_poset(list(house.elements) + ["top"],
                       list(house.covers) + [(t, "top") for t in house.elements
                                             if not house.upper_covers(t)])


def collapses_by_rebuilding(p) -> bool:
    """Reference for a one-point `poset_core`: remove any beat through a
    full rebuild of the poset until none is left."""
    while len(p) > 1:
        beats = [e for e in p.elements if is_downbeat(p, e) or is_upbeat(p, e)]
        if not beats:
            return False
        p = rebuilt_subposet(p, set(p.elements) - {beats[0]})
    return len(p) == 1


class TestCertificates:
    def test_mobius_is_reduced_euler_characteristic(self):
        # P. Hall: mu(s) is the reduced Euler characteristic of the order
        # complex of the strict downset (upset for the dual) of s
        rng = random.Random(131)
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 10))
            for dual, closure in ((False, downset), (True, upset)):
                mu = p.mobius(dual)
                for s in p.elements:
                    counts = order_complex(closure(p, s)).counts()
                    chi = sum((-1) ** k * n for k, n in enumerate(counts))
                    assert mu[s] == chi - 1
                assert p.mobius(dual) is mu  # computed once

    def test_collapse_examples(self):
        def core_is_point(p):
            return len(poset_core(p)) == 1

        assert core_is_point(chain("a"))
        assert core_is_point(chain("a", "b", "c"))
        assert core_is_point(circle_with_apex())
        assert core_is_point(p5_gadget())
        assert not core_is_point(build_poset([], []))
        assert not core_is_point(build_poset(["a", "b"], []))
        assert not core_is_point(four_point_circle())
        # contractible, but without a single beat
        assert not core_is_point(bing_house_poset())
        # a cone: the top dominates the house, which then collapses
        assert core_is_point(cone_over_house())
        assert core_is_point(chain(*(f"c{i:04d}" for i in range(1100))))

    @pytest.mark.parametrize("p", [build_poset([], []), build_poset(["a", "b"], []),
                                   four_point_circle(), bing_house_poset()],
                             ids=["empty", "antichain", "circle", "house"])
    def test_beat_free_poset_is_its_own_core(self, p):
        assert poset_core(p) is p

    def test_collapse_matches_rebuilding_reference(self):
        # the core is the induced subposet on its elements, has no beat
        # left, and is a point exactly when the rebuilding reference
        # collapses the poset
        rng = random.Random(137)
        collapsed = 0
        for _ in range(150):
            p = random_poset(rng, rng.randint(1, 12))
            for q in [p] + [downset(p, s) for s in p.elements]:
                c = poset_core(q)
                assert c == rebuilt_subposet(q, c.elements)
                assert not any(is_downbeat(c, e) or is_upbeat(c, e) for e in c.elements)
                expected = collapses_by_rebuilding(q)
                assert (len(c) == 1) == expected
                collapsed += expected
        assert collapsed > 100

    def test_local_cover_update_matches_rebuild(self):
        # after each beat removal by `_unlink` the tables are the covers
        # of the induced subposet, for down- and upbeats alike
        rng = random.Random(149)
        removed = {"down": 0, "up": 0}
        for _ in range(150):
            p = random_poset(rng, rng.randint(2, 12))
            upper, lower = dict(p._upper), dict(p._lower)
            while True:
                beats = [e for e in lower if len(lower[e]) == 1 or len(upper[e]) == 1]
                if not beats:
                    break
                x = rng.choice(beats)
                removed["down" if len(lower[x]) == 1 else "up"] += 1
                degrees = {e: (len(lower[e]), len(upper[e])) for e in lower}
                neighbours = set(lower[x] + upper[x])
                _unlink(upper, lower, p._above, x)
                q = rebuilt_subposet(p, lower)
                assert lower == {e: q.lower_covers(e) for e in q.elements}
                assert upper == {e: q.upper_covers(e) for e in q.elements}
                # only the covers of x can change their cover counts
                assert {e for e in lower
                        if degrees[e] != (len(lower[e]), len(upper[e]))} <= neighbours
        assert min(removed.values()) > 200

    @pytest.mark.parametrize("p", [chain(*"abcdefgh"), circle_with_apex(), p5_gadget(),
                                   cone_over_house()],
                             ids=["8-chain", "circle-with-apex", "p5-gadget", "house-cone"])
    def test_collapse_unlinks_each_beat_once(self, monkeypatch, p):
        calls = []
        monkeypatch.setattr(sheaf_module, "_unlink",
                            lambda *a, fn=_unlink: calls.append(a[-1]) or fn(*a))
        assert len(poset_core(p)) == 1
        assert len(calls) == len(set(calls)) == len(p) - 1

    def test_subposets_share_the_verdict_memo(self):
        p = p5_gadget()
        q = downset(p, "s")
        assert q._acyclic is p._acyclic
        assert without(q, q.elements[0])._acyclic is p._acyclic
        core = poset_core(p)
        assert len(core) == 1 and core._acyclic is p._acyclic
        assert build_poset(q.elements, q.covers)._acyclic is not p._acyclic


class TestOrderComplex:
    def test_chain(self):
        k = order_complex(chain("a", "b", "c"))
        assert k.counts() == (3, 3, 1)

    def test_antichain(self):
        p = build_poset(list("abcde"), [])
        assert order_complex(p).counts() == (5,)

    def test_circle_is_square_boundary(self):
        k = order_complex(four_point_circle())
        assert k.counts() == (4, 4)

    def test_face_closed(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 8))
            k = order_complex(p)
            assert len(k.simplices[0]) == len(p)
            for d in range(1, len(k.simplices)):
                lower = set(k.simplices[d - 1])
                for s in k.simplices[d]:
                    for i in range(len(s)):
                        assert s[:i] + s[i + 1:] in lower

    def test_levels_sorted_and_counted_ahead(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_poset(rng, rng.randint(0, 9))
            k = order_complex(p)
            assert all(list(level) == sorted(level) for level in k.simplices)
            assert chain_count(p) == sum(k.counts())

    def test_chain_budget(self):
        # an n-chain has 2^n - 1 chains; MAX_CHAINS is 2^16
        names = [f"c{i:04d}" for i in range(1100)]
        assert sum(order_complex(chain(*names[:16])).counts()) == 2 ** 16 - 1 <= MAX_CHAINS
        with pytest.raises(ChainCountError):
            order_complex(chain(*names[:17]))
        # the count stops soon after the budget, with a lower bound
        assert MAX_CHAINS < chain_count(chain(*names)) < 2 ** 18
        with pytest.raises(ChainCountError):
            order_complex(chain(*names))

    def test_chains_increasing(self):
        p = four_point_circle()
        for level in order_complex(p).simplices[1:]:
            for s in level:
                for u, v in zip(s, s[1:]):
                    assert leq(p, u, v) and u != v


class TestSimplicialModel:
    """A simplicial face poset gives back its own complex, vertex tuples
    sorted by name, level j holding the faces with j + 1 vertices; any
    other poset gives its order complex."""

    @staticmethod
    def check_round_trip(facets):
        assert simplicial_model(face_poset(facets)).simplices == \
            simplicial_complex(facets).simplices

    def test_random_complexes(self):
        for facets in random_complexes():
            self.check_round_trip(facets)

    @pytest.mark.parametrize("facets", [RP2, SUSPENDED_RP2], ids=["rp2", "suspended-rp2"])
    def test_projective_plane_and_suspension(self, facets):
        self.check_round_trip(facets)

    def test_house_lists_faces_not_chains(self):
        k = simplicial_model(bing_house_poset())
        assert k.counts() == (60, 199, 140)
        assert sum(k.counts()) == len(bing_house_poset())
        assert sum(order_complex(bing_house_poset()).counts()) == 2477
        # each face tuple stands for the element with those vertices
        assert {k.element(face): set(face) for level in k.simplices for face in level} == \
            {x: set(x.split("|")) for x in bing_house_poset().elements}

    @pytest.mark.parametrize("poset", [
        zigzag_poset,
        lambda: zigzag_poset(dual=True),
        bing_house_with_apexes,
        four_point_circle,
        circle_with_apex,
        lambda: build_poset([], []),
    ], ids=["zigzag", "zigzag-dual", "house-with-apexes", "circle", "circle-with-apex", "empty"])
    def test_any_other_poset_gives_its_order_complex(self, poset):
        p = poset()
        k = simplicial_model(p)
        assert k.simplices == order_complex(p).simplices
        # each chain stands for its top element
        assert all(k.element(c) in c and set(c) - {k.element(c)} <= p.strictly_below(k.element(c))
                   for level in k.simplices for c in level)

    def test_any_other_poset_keeps_the_chain_budget(self):
        names = [f"c{i:04d}" for i in range(17)]
        with pytest.raises(ChainCountError):
            simplicial_model(chain(*names))


class TestRemove:
    def test_bridge_cover_appears(self):
        p = chain("a", "v", "b")
        assert without(p, "v") == chain("a", "b")

    def test_isolated(self):
        p = build_poset(["a", "b", "c"], [("a", "b")])
        q = without(p, "c")
        assert q == chain("a", "b")

    def test_circle_remove_maximal(self):
        q = without(four_point_circle(), "x")
        assert q == build_poset(["a", "b", "y"], [("a", "y"), ("b", "y")])

    def test_order_preserved_on_rest(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_poset(rng, rng.randint(2, 8))
            s = rng.choice(p.elements)
            q = without(p, s)
            for u in q.elements:
                for v in q.elements:
                    assert leq(q, u, v) == leq(p, u, v)


class TestRemoveElementAgainstRebuild:
    """Removal derives its tables locally; the reference is the
    subposet rebuilt by `gen.rebuilt_subposet` on every other element."""

    def test_random_posets(self):
        rng = random.Random(163)
        for _ in range(150):
            p = random_poset(rng, rng.randint(1, 14), edge_prob=rng.choice([None, 0.3, 0.6]))
            while len(p):
                s = rng.choice(p.elements)
                q = without(p, s)
                fresh = rebuilt_subposet(p, set(p.elements) - {s})
                assert q.elements == fresh.elements
                assert q.covers == fresh.covers
                assert q == fresh and hash(q) == hash(fresh)
                for e in q.elements:
                    assert q.upper_covers(e) == fresh.upper_covers(e)
                    assert q.lower_covers(e) == fresh.lower_covers(e)
                    assert q.strictly_above(e) == fresh.strictly_above(e)
                    assert q.strictly_below(e) == fresh.strictly_below(e)
                assert q.mobius() == fresh.mobius()
                assert q.mobius(dual=True) == fresh.mobius(dual=True)
                assert q._acyclic is p._acyclic
                # the parent's order less s, which the rebuild need not give
                assert q.linear_extension() == tuple(e for e in p.linear_extension() if e != s)
                p = q


def reference_linear_extension(p) -> tuple:
    """Kahn's algorithm on the cover pairs, smallest name first."""
    indeg = Counter(v for (_, v) in p.covers)
    ready, out = [e for e in p.elements if not indeg[e]], []
    while ready:
        e = min(ready)
        ready.remove(e)
        out.append(e)
        for (u, v) in p.covers:
            if u == e:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
    return tuple(out)


def reference_strict_order(elements, covers) -> set:
    """Pairs u < v: Warshall's transitive closure of the cover pairs."""
    lt = set(covers)
    for k in elements:
        lt |= {(u, v) for (u, w) in lt if w == k for (x, v) in lt if x == k}
    return lt


class TestTablesAgainstReference:
    def check(self, p, lt):
        for e in p.elements:
            assert p.strictly_below(e) == {u for (u, v) in lt if v == e}
            assert p.strictly_above(e) == {v for (u, v) in lt if u == e}
            assert p.upper_covers(e) == tuple(sorted(v for (u, v) in p.covers if u == e))
            assert p.lower_covers(e) == tuple(sorted(u for (u, v) in p.covers if v == e))

    def test_random_posets(self):
        rng = random.Random(19)
        for _ in range(40):
            p = random_poset(rng, rng.randint(1, 10))
            self.check(p, reference_strict_order(p.elements, p.covers))

    def test_linear_extension_is_smallest_name_first(self):
        """A built poset's linear extension is Kahn's, smallest name
        first; an induced subposet keeps its parent's, less the elements
        it leaves out."""
        rng = random.Random(37)
        for _ in range(40):
            # relabelled, so that name order is not an order of the poset
            p = relabelled(random_poset(rng, rng.randint(0, 10)), rng)
            assert p.linear_extension() == reference_linear_extension(p)
            q = induced_subposet(p, [e for e in p.elements if rng.random() < 0.6])
            assert q.linear_extension() == tuple(e for e in p.linear_extension() if e in q)

    def test_random_induced_subposets(self):
        rng = random.Random(29)
        for _ in range(40):
            p = random_poset(rng, rng.randint(1, 10))
            lt = reference_strict_order(p.elements, p.covers)
            keep = {e for e in p.elements if rng.random() < 0.6}
            q = induced_subposet(p, keep)
            sub_lt = {(u, v) for (u, v) in lt if u in keep and v in keep}
            assert q.covers == {
                (u, v) for (u, v) in sub_lt
                if not any((u, w) in sub_lt and (w, v) in sub_lt for w in keep)
            }
            self.check(q, sub_lt)


def reference_mobius(p, dual: bool = False) -> dict:
    """mu(e) = -1 - sum of mu(t) over t < e (t > e if `dual`), summed
    over the order relation `leq` itself, in a linear extension."""
    mu = {}
    order = p.linear_extension()
    for e in reversed(order) if dual else order:
        mu[e] = -1 - sum(m for t, m in mu.items()
                         if t != e and (leq(p, e, t) if dual else leq(p, t, e)))
    return mu


def reference_face_vertices(p):
    """x -> the minimal elements at or below x, if p is a face poset by
    definition: the images are distinct, ordered as their elements, and
    closed under nonempty subsets.  None otherwise (also when p is
    empty)."""
    if not len(p):
        return None
    vertices = {x: frozenset(y for y in p.elements if not p.lower_covers(y) and leq(p, y, x))
                for x in p.elements}
    faces = set(vertices.values())
    if len(faces) != len(p):
        return None
    if any(leq(p, y, x) != (vertices[y] <= vertices[x]) for x in p.elements for y in p.elements):
        return None
    if any(len(f) > 1 and f - {v} not in faces for f in faces for v in f):
        return None
    return vertices


class TestDerivedTablesAgainstRebuild:
    """A subposet keeps cover tables, a linear extension and up-closures
    only.  Whether `induced_subposet` made it or a working subspace's
    `space()` (which shrinks the last space it built), every table
    derived from those agrees with the subposet that
    `gen.rebuilt_subposet` builds from scratch, and the Moebius function
    and the face-poset test also agree with references written from
    their definitions."""

    def check(self, q, keep, p):
        fresh = rebuilt_subposet(p, keep)
        assert set(q.elements) == set(keep) and q == fresh
        for dual in (False, True):
            assert q.mobius(dual) == fresh.mobius(dual) == reference_mobius(fresh, dual)
        assert chain_count(q) == chain_count(fresh)
        for e in q.elements:
            assert q.strictly_below(e) == fresh.strictly_below(e)
            assert q.strictly_above(e) == fresh.strictly_above(e)
        vertices = simplicial_vertices(q)
        assert vertices == simplicial_vertices(fresh) == reference_face_vertices(fresh)
        return vertices is not None

    def check_both_routes(self, rng, p, keep, on_the_way: float = 0.2) -> bool:
        """Checks the subposet on `keep` made both ways, and a share
        `on_the_way` of the working subspace's spaces on the way there;
        True if it is a face poset."""
        face = self.check(induced_subposet(p, keep), keep, p)
        w = _WorkingSubspace(SheavedSpace(p, constant_sheaf(p, QQ)))
        removed = [e for e in p.elements if e not in keep]
        rng.shuffle(removed)
        for i, s in enumerate(removed, 1):
            w.remove(s)
            if i == len(removed) or rng.random() < on_the_way:
                q = w.space().poset
                self.check(q, q.elements, p)
        assert w.space().poset == induced_subposet(p, keep)
        return face

    def test_random_posets(self):
        rng = random.Random(311)
        for _ in range(150):
            p = random_poset(rng, rng.randint(1, 16), edge_prob=rng.choice([None, 0.3, 0.6]))
            keep = {e for e in p.elements if rng.random() < rng.choice([0.4, 0.7, 0.9])}
            self.check_both_routes(rng, p, keep)

    def test_face_posets(self):
        """Random ideals of a face poset are face posets (subcomplexes);
        other keep sets mostly are not, some with an injective V."""
        rng = random.Random(313)
        complexes = [RP2, SUSPENDED_RP2, [("a", "b", "c", "d")],
                     *itertools.islice(random_complexes(), 20)]
        seen = set()
        for facets in complexes:
            p = face_poset(facets)
            for _ in range(3):
                ideal = random_ideal(rng, p)
                seen.add(self.check_both_routes(rng, p, ideal))
                keep = {e for e in p.elements if rng.random() < 0.8}
                seen.add(self.check_both_routes(rng, p, keep))
                if ideal:
                    self.check_both_routes(rng, p, ideal - {rng.choice(sorted(ideal))})
        assert seen == {False, True}

    def test_house(self):
        rng = random.Random(317)
        p = bing_house_poset()
        assert self.check_both_routes(rng, p, random_ideal(rng, p), on_the_way=0)
        self.check_both_routes(rng, p, {e for e in p.elements if rng.random() < 0.9}, on_the_way=0)


class TestIsomorphism:
    def test_self(self):
        p = four_point_circle()
        m = posets_isomorphic(p, p)
        assert m is not None
        assert all(m[e] == e or True for e in p.elements)
        assert {(m[u], m[v]) for (u, v) in p.covers} == set(p.covers)

    def test_chain_vs_antichain(self):
        assert posets_isomorphic(chain("a", "b"), build_poset(["x", "y"], [])) is None

    def test_relabelled_circle(self):
        p = four_point_circle()
        q = build_poset(
            ["m1", "m2", "t1", "t2"],
            [("m1", "t1"), ("m1", "t2"), ("m2", "t1"), ("m2", "t2")],
        )
        m = posets_isomorphic(p, q)
        assert m is not None
        assert {(m[u], m[v]) for (u, v) in p.covers} == set(q.covers)

    def test_symmetric_and_reflexive(self):
        rng = random.Random(13)
        for _ in range(15):
            p = random_poset(rng, rng.randint(1, 7))
            q = random_poset(rng, rng.randint(1, 7))
            assert posets_isomorphic(p, p) is not None
            assert (posets_isomorphic(p, q) is None) == (posets_isomorphic(q, p) is None)

    def test_size_gate(self):
        p = build_poset([f"e{i}" for i in range(25)], [])
        with pytest.raises(ValueError):
            posets_isomorphic(p, p)

    def test_one_crown_is_not_two(self):
        # equal sizes, cover counts and signature multisets: only the
        # search can tell a 12-cycle from two 6-cycles
        big = crown(6)
        two = build_poset(crown(3, "x").elements + crown(3, "y").elements,
                          crown(3, "x").covers | crown(3, "y").covers)
        t0 = time.perf_counter()
        assert posets_isomorphic(big, two) is None
        assert posets_isomorphic(two, big) is None
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("levels", [2, 3])
    def test_relabelled_crown_needs_backtracking(self, levels):
        # all elements of a level share one signature, so the search
        # makes choices that later elements refute; from the relabelled
        # side it meets the levels in a shuffled order
        p = crown(6, levels=levels)
        q = relabelled(p, random.Random(29))
        for a, b in ((p, q), (q, p)):
            m = posets_isomorphic(a, b)
            assert m is not None and sorted(m.values()) == sorted(b.elements)
            assert {(m[u], m[v]) for (u, v) in a.covers} == set(b.covers)

    def test_matches_brute_force(self):
        """Same verdict as a search over every bijection, on seeded
        posets of at most 7 elements and relabelled copies of them; a
        mapping returned sends covers onto covers."""
        rng = random.Random(31)
        verdicts = []
        for _ in range(40):
            n = rng.randint(1, 7)
            p = random_poset(rng, n)
            q = random_poset(rng, n)
            r = relabelled(p, rng)
            # from r, whose names are shuffled, the search meets elements
            # in an order that the order of p does not predict
            for a, b in ((p, q), (p, r), (r, p)):
                m = posets_isomorphic(a, b)
                assert (m is not None) == isomorphic_by_brute_force(a, b)
                if m is not None:
                    assert sorted(m.values()) == sorted(b.elements)
                    assert {(m[u], m[v]) for (u, v) in a.covers} == set(b.covers)
                verdicts.append(m is not None)
        assert 40 < sum(verdicts) < len(verdicts) - 10


def crown(n, prefix="", levels=2):
    """`levels` levels a, b, ... of n elements, the i-th of each level
    below the i-th and the (i+1)-th (mod n) of the next: with two
    levels, a_i < b_i and a_i < b_{i+1}, a 2n-cycle."""
    names = [[f"{prefix}{level}{i}" for i in range(n)] for level in "abcdef"[:levels]]
    return build_poset([e for level in names for e in level],
                       [(lo[i], hi[(i + k) % n]) for lo, hi in zip(names, names[1:])
                        for i in range(n) for k in (0, 1)])


def relabelled(p, rng):
    """p with its elements renamed by a random permutation of new names."""
    names = [f"r{i:02d}" for i in range(len(p))]
    rng.shuffle(names)
    new = dict(zip(p.elements, names))
    return build_poset(names, [(new[u], new[v]) for (u, v) in p.covers])


def isomorphic_by_brute_force(p, q) -> bool:
    if len(p) != len(q) or len(p.covers) != len(q.covers):
        return False
    for image in itertools.permutations(q.elements):
        m = dict(zip(p.elements, image))
        if all((m[u], m[v]) in q.covers for (u, v) in p.covers):
            return True
    return False


def test_derived_posets_revalidate():
    rng = random.Random(17)
    for _ in range(25):
        p = random_poset(rng, rng.randint(2, 9))
        s = rng.choice(p.elements)
        for q in (downset(p, s), upset(p, s), without(p, s)):
            # full validation of what each operation derived
            assert build_poset(q.elements, q.covers) == q


def test_a_deep_chain_stays_within_a_memory_bound():
    """A poset stores one closure table, its up-closures.  Loading,
    checking and taking the core of the constant rank-2 GF(7) chain of
    2,000 elements, whose up-closures hold about two million entries,
    peaks below 120 MiB of Python allocations (about 84 MiB); a second,
    down-closure table took it to about 167 MiB.  tracemalloc counts this
    code's allocations only, and the same ones on every run."""
    doc = parse_space(chain_document(2000))
    tracemalloc.start()
    try:
        sp = document_space(doc)
        assert check_commutativity(sp.sheaf) == (True, None)
        cored, _ = core(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cored.poset) == 1
    assert peak < 120 * 2**20, f"peak {peak / 2**20:.1f} MiB"

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import four_point_circle, p5_gadget, p5_poset
from gen import (
    apply,
    from_rows,
    global_sections,
    random_poset,
    random_sheaf,
    random_space,
    rescaled,
    supported_sheaf,
    zeros,
)
from posheaf import sheaf as sheaf_module
from posheaf.exact_linalg import GF, QQ, ZZ, Matrix, compose
from posheaf.poset import Poset, build_poset, leq
from posheaf.sheaf import (
    CommutativityError,
    SheafError,
    Sheaf,
    SheavedSpace,
    check_commutativity,
    constant_sheaf,
    require_commutative,
    restrict,
)


def diamond():
    return build_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )


def noncommuting_diamond():
    p = diamond()
    i = Matrix.identity(QQ, 1)
    neg = from_rows(QQ, [[-1]])
    return Sheaf(
        p,
        QQ,
        {e: 1 for e in p.elements},
        {("bot", "l"): i, ("bot", "r"): i, ("l", "top"): i, ("r", "top"): neg},
    )


def assert_matches_fresh_copy(sp):
    """A restriction, built without validation, equals the sheaf the
    validating constructor builds from its tables; its composites, read
    from the memo it shares with its parent, equal those that fresh copy
    computes itself, on every comparable pair, and that copy commutes."""
    g = sp.sheaf
    fresh = Sheaf(sp.poset, g.ring, g.stalk_dim, g.cover_maps)
    assert g == fresh and g.base is sp.poset
    assert g._verified
    for u in sp.poset.elements:
        for v in (u, *sp.poset.strictly_above(u)):
            assert g.restriction(u, v) == fresh.restriction(u, v)
    ok, err = check_commutativity(fresh)
    assert ok, err


@pytest.fixture
def compose_calls(monkeypatch):
    """The list of calls sheaf.py makes to `compose`, one entry each."""
    calls = []
    real = sheaf_module.compose
    monkeypatch.setattr(sheaf_module, "compose",
                        lambda a, b: calls.append(1) or real(a, b))
    return calls


def path_composites(f):
    """(u, v) -> the set of composites along every cover path from u up
    to v: the slow reference for the local-square sweep."""
    out = {}
    for u in f.base.elements:
        stack = [(u, Matrix.identity(f.ring, f.stalk_dim[u]))]
        while stack:
            x, m = stack.pop()
            for w in f.base.upper_covers(x):
                mw = compose(f.cover_maps[(x, w)], m)
                out.setdefault((u, w), set()).add(mw)
                stack.append((w, mw))
    return out


def perturbed(rng, f):
    """f with one entry of one nonempty cover map raised by 1."""
    covers = sorted(c for c, m in f.cover_maps.items() if m.rows and m.cols)
    if not covers:
        return f
    c = rng.choice(covers)
    entries = [list(row) for row in f.cover_maps[c].entries]
    entries[rng.randrange(len(entries))][rng.randrange(len(entries[0]))] += 1
    maps = dict(f.cover_maps)
    maps[c] = Matrix(f.ring, len(entries), len(entries[0]), entries)
    return Sheaf(f.base, f.ring, f.stalk_dim, maps)


def assert_verdict_matches_paths(f) -> bool:
    """check_commutativity agrees with composing every cover path, and a
    reported pair has two distinct path composites; returns the verdict."""
    composites = path_composites(f)
    ok, err = check_commutativity(f)
    assert ok == all(len(ms) == 1 for ms in composites.values())
    if not ok:
        assert err.left != err.right
        assert {err.left, err.right} <= composites[(err.lower, err.upper)]
    return ok


class TestConstruction:
    def test_shape_mismatch(self):
        p = build_poset(["a", "b"], [("a", "b")])
        with pytest.raises(SheafError):
            Sheaf(p, QQ, {"a": 2, "b": 1}, {("a", "b"): from_rows(QQ, [[1, 0], [0, 1]])})

    def test_missing_cover_map(self):
        p = build_poset(["a", "b"], [("a", "b")])
        with pytest.raises(SheafError):
            Sheaf(p, QQ, {"a": 1, "b": 1}, {})

    def test_negative_dim(self):
        p = build_poset(["a"], [])
        with pytest.raises(SheafError):
            Sheaf(p, QQ, {"a": -1}, {})

    def test_zero_stalk_ok(self):
        p = build_poset(["a", "b"], [("a", "b")])
        f = Sheaf(p, QQ, {"a": 0, "b": 3}, {("a", "b"): zeros(QQ, 3, 0)})
        assert f.stalk_dim == {"a": 0, "b": 3}


def two_chain():
    return build_poset(["a", "b"], [("a", "b")])


def antichain():
    return build_poset(["a", "b"], [])


EYE = Matrix.identity(QQ, 1)
REFUSALS = {
    "integer-ring": (lambda: Sheaf(two_chain(), ZZ, {"a": 1, "b": 1}, {("a", "b"): EYE}),
                     "sheaf coefficients must be Q or GF(p), got ZZ"),
    "missing-stalk": (lambda: Sheaf(two_chain(), QQ, {"a": 1}, {("a", "b"): EYE}),
                      "missing stalk dimension for 'b'"),
    "unknown-stalk": (lambda: Sheaf(antichain(), QQ, {"a": 1, "b": 1, "z": 1}, {}),
                      "stalks for unknown elements: ['z']"),
    "map-for-non-cover": (lambda: Sheaf(antichain(), QQ, {"a": 1, "b": 1}, {("a", "b"): EYE}),
                          "maps for non-covers: [('a', 'b')]"),
    "map-over-another-ring": (lambda: Sheaf(two_chain(), QQ, {"a": 1, "b": 1},
                                            {("a", "b"): Matrix.identity(GF(7), 1)}),
                              "map for ('a', 'b') has ring GF(7), sheaf has QQ"),
    "foreign-base": (lambda: SheavedSpace(two_chain(), constant_sheaf(antichain(), QQ)),
                     "sheaf base differs from the given poset"),
    "negative-constant-rank": (lambda: constant_sheaf(two_chain(), QQ, -1), "negative rank"),
    "float-stalk": (lambda: Sheaf(antichain(), QQ, {"a": 2.7, "b": 2}, {}),
                    "bad stalk dimension for 'a': 2.7"),
    "string-stalk": (lambda: Sheaf(antichain(), QQ, {"a": 1, "b": "2"}, {}),
                     "bad stalk dimension for 'b': '2'"),
    "bool-stalk": (lambda: Sheaf(antichain(), QQ, {"a": True, "b": 1}, {}),
                   "bad stalk dimension for 'a': True"),
    "list-map": (lambda: Sheaf(two_chain(), QQ, {"a": 1, "b": 1}, {("a", "b"): [[1]]}),
                 "map for ('a', 'b') is a list, not a Matrix"),
    "missing-map-value": (lambda: Sheaf(two_chain(), QQ, {"a": 1, "b": 1}, {("a", "b"): None}),
                          "map for ('a', 'b') is a NoneType, not a Matrix"),
    "unknown-stalks-of-mixed-types": (
        lambda: Sheaf(antichain(), QQ, {"a": 1, "b": 1, 3: 1, "z": 1}, {}),
        "stalks for unknown elements: ['z', 3]"),
    "non-covers-of-mixed-types": (
        lambda: Sheaf(antichain(), QQ, {"a": 1, "b": 1}, {("a", "b"): EYE, (0, 1): EYE}),
        "maps for non-covers: [('a', 'b'), (0, 1)]"),
    "float-constant-rank": (lambda: constant_sheaf(two_chain(), QQ, 2.5), "bad rank: 2.5"),
    "string-constant-rank": (lambda: constant_sheaf(two_chain(), QQ, "2"), "bad rank: '2'"),
}


@pytest.mark.parametrize("make, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_name_their_cause(make, message):
    with pytest.raises(SheafError) as info:
        make()
    assert str(info.value) == message


class TestCommutativity:
    def test_diamond_commutes(self):
        f = constant_sheaf(diamond(), QQ, 2)
        ok, err = check_commutativity(f)
        assert ok and err is None

    def test_diamond_fails(self):
        f = noncommuting_diamond()
        ok, err = check_commutativity(f)
        assert not ok
        assert err.lower == "bot" and err.upper == "top"
        with pytest.raises(CommutativityError):
            require_commutative(f)

    def test_square_on_non_adjacent_upper_covers(self):
        # u's upper covers a < b < c; only a and c meet, at m
        p = build_poset(["u", "a", "b", "c", "m"],
                        [("u", "a"), ("u", "b"), ("u", "c"), ("a", "m"), ("c", "m")])
        maps = {c: Matrix.identity(QQ, 1) for c in p.covers}
        maps[("c", "m")] = from_rows(QQ, [[2]])
        ok, err = check_commutativity(Sheaf(p, QQ, {e: 1 for e in p.elements}, maps))
        assert not ok and (err.lower, err.upper) == ("u", "m")

    def test_failed_check_is_not_cached(self):
        f = noncommuting_diamond()
        assert check_commutativity(f)[0] is False
        ok, err = check_commutativity(f)
        assert not ok and (err.lower, err.upper) == ("bot", "top")
        assert not f._verified

    def test_tree_always_commutes(self, compose_calls):
        # a poset whose intervals all have a single factoring cannot fail
        p = build_poset(["r", "x", "y"], [("r", "x"), ("r", "y")])
        f = Sheaf(
            p,
            QQ,
            {"r": 2, "x": 1, "y": 1},
            {("r", "x"): from_rows(QQ, [[1, 2]]), ("r", "y"): from_rows(QQ, [[3, 4]])},
        )
        ok, _ = check_commutativity(f)
        assert ok
        assert compose_calls == []

    def test_long_chain_composes_nothing(self, compose_calls):
        # 1,100 elements: the sweep has no square to compare on a chain
        p = build_poset([f"c{i:04d}" for i in range(1100)],
                        [(f"c{i:04d}", f"c{i + 1:04d}") for i in range(1099)])
        f = constant_sheaf(p, GF(7), 2)
        assert check_commutativity(f) == (True, None)
        assert compose_calls == []
        # composed up from the bottom, one step at a time, without recursion
        assert f.restriction("c0000", "c1099") == Matrix.identity(GF(7), 2)
        assert len(compose_calls) == 1098

    def test_dense_random_posets_match_every_path(self):
        # one cover map entry perturbed in 80% of the sheaves
        rng = random.Random(71)
        verdicts = []
        for ring in (QQ, GF(2), GF(7)):
            for _ in range(200):
                f = random_sheaf(rng, random_poset(rng, rng.randint(4, 10), 0.5), ring)
                if rng.random() < 0.8:
                    f = perturbed(rng, f)
                verdicts.append(assert_verdict_matches_paths(f))
        assert 0 < verdicts.count(False) < len(verdicts)

    def test_identity_diagrams_need_no_sweep(self, compose_calls):
        # constant sheaves of rank 1-3 are certified without composing
        # anything, and the full sweep agrees with the certificate
        rng = random.Random(97)
        for ring in (QQ, GF(7)):
            for _ in range(60):
                f = constant_sheaf(random_poset(rng, rng.randint(1, 10), 0.5), ring,
                                   rng.randint(1, 3))
                assert check_commutativity(f) == (True, None) and f._verified
                assert compose_calls == []
                assert sheaf_module._first_violation(f) is None
                compose_calls.clear()

    def test_identity_diagrams_with_one_other_map_are_swept(self):
        # one entry of one identity raised by 1: the certificate no
        # longer applies, and the verdict is the sweep's
        rng = random.Random(101)
        refused = 0
        for ring in (QQ, GF(7)):
            for _ in range(60):
                f = perturbed(rng, constant_sheaf(random_poset(rng, rng.randint(4, 10), 0.5),
                                                  ring, rng.randint(1, 3)))
                ok, err = check_commutativity(f)
                assert ok == (sheaf_module._first_violation(f) is None) == f._verified
                assert (err is None) == ok
                refused += not ok
        assert refused > 0

    def test_random_generated_commute(self):
        rng = random.Random(23)
        for _ in range(30):
            p = random_poset(rng, rng.randint(1, 8))
            f = random_sheaf(rng, p, QQ)
            ok, err = check_commutativity(f)
            assert ok, err


@given(
    seed=st.integers(0, 10**6),
    ring=st.sampled_from([QQ, GF(2), GF(7)]),
    n=st.integers(1, 10),
    perturb=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_commutativity_matches_every_path(seed, ring, n, perturb):
    rng = random.Random(seed)
    f = random_sheaf(rng, random_poset(rng, n, 0.5), ring)
    assert_verdict_matches_paths(perturbed(rng, f) if perturb else f)


class TestRestrictionComposite:
    def test_identity_on_element(self):
        f = constant_sheaf(diamond(), QQ, 3)
        assert f.restriction("l", "l") == Matrix.identity(QQ, 3)

    def test_composite_factors_through_middle(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poset(rng, rng.randint(2, 8))
            f = random_sheaf(rng, p, GF(5))
            for (u, v) in p.covers:
                assert f.restriction(u, v) == f.cover_maps[(u, v)]
            for u in p.elements:
                for m in p.elements:
                    for v in p.elements:
                        if u != m != v and leq(p, u, m) and leq(p, m, v):
                            left = f.restriction(u, v)
                            right = compose(f.restriction(m, v), f.restriction(u, m))
                            assert left == right

    @pytest.mark.parametrize("ring", [GF(7), QQ], ids=["GF7", "Q"])
    def test_cover_map_is_returned_as_it_is(self, ring):
        """A cover's restriction is its own map, with no path walk and no
        memo entry, on a gauged GF(7) space and a non-integral Q space."""
        rng = random.Random(137)
        p = random_poset(rng, 12, 0.3)
        f = random_sheaf(rng, p, ring)
        if ring == QQ:
            f = rescaled(rng, SheavedSpace(p, f)).sheaf
        assert len(p.covers) >= 10
        if ring == QQ:
            assert any(isinstance(x, Fraction) for m in f.cover_maps.values()
                       for row in m.entries for x in row)
        for cov in p.covers:
            assert f.restriction(*cov) is f.cover_maps[cov]
        assert f._composites == {}

    def test_long_composite(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        m1 = from_rows(QQ, [[2]])
        m2 = from_rows(QQ, [[3]])
        f = Sheaf(p, QQ, {"a": 1, "b": 1, "c": 1}, {("a", "b"): m1, ("b", "c"): m2})
        assert f.restriction("a", "c") == compose(m2, m1)

    def test_incomparable_raises(self):
        f = constant_sheaf(four_point_circle(), QQ)
        with pytest.raises(SheafError):
            f.restriction("x", "y")


class TestNamedSheaves:
    """`gen.supported_sheaf`, which the acceptance criteria use for the
    skyscraper, strict-downset and ideal sheaves."""

    def test_skyscraper_support(self):
        p = p5_poset()
        f = supported_sheaf(p, {"ab"}, QQ, w=2)
        assert f.stalk_dim["ab"] == 2
        assert all(f.stalk_dim[e] == 0 for e in p.elements if e != "ab")

    def test_ceil_support_is_closed_downset(self):
        p = p5_poset()
        f = supported_sheaf(p, p.strictly_below("ab") | {"ab"}, QQ)
        for e in p.elements:
            assert f.stalk_dim[e] == (1 if e in {"a", "b", "ab"} else 0)

    def test_strict_down_support(self):
        p = p5_poset()
        f = supported_sheaf(p, p.strictly_below("ab"), QQ, w=3)
        for e in p.elements:
            assert f.stalk_dim[e] == (3 if e in {"a", "b"} else 0)

    def test_ideal_rejects_non_downset(self):
        # b < s through ab and through bc: the support keeps ab, not bc,
        # so the two composites are the identity and zero
        ok, err = check_commutativity(supported_sheaf(p5_gadget(), {"b", "ab", "s"}, QQ))
        assert not ok and (err.lower, err.upper) == ("b", "s")

    def test_ideal_accepts_downset(self):
        f = supported_sheaf(p5_poset(), {"a", "b", "ab"}, QQ, w=2)
        assert f.stalk_dim["ab"] == 2 and f.stalk_dim["c"] == 0
        require_commutative(f)


class TestRestrictPullback:
    def test_restrict_keeps_maps(self):
        p = diamond()
        sp = SheavedSpace(p, constant_sheaf(p, QQ, 2))
        sub = restrict(sp, ["bot", "l", "top"])
        assert set(sub.poset.elements) == {"bot", "l", "top"}
        require_commutative(sub.sheaf)
        assert sub.sheaf.restriction("bot", "top") == Matrix.identity(QQ, 2)

    def test_restrict_composes_across_gap(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        f = Sheaf(
            p,
            QQ,
            {"a": 1, "b": 1, "c": 1},
            {("a", "b"): from_rows(QQ, [[2]]), ("b", "c"): from_rows(QQ, [[5]])},
        )
        sub = restrict(SheavedSpace(p, f), ["a", "c"])
        assert sub.sheaf.cover_maps[("a", "c")] == from_rows(QQ, [[10]])

    def test_restrict_to_few_elements_builds_one_poset(self, monkeypatch):
        # dropping 399 or 398 elements of the 400-chain changes the tables
        # in place; the subposet is built once, at the end
        names = [f"c{i:04d}" for i in range(400)]
        p = build_poset(names, list(zip(names, names[1:])))
        sp = SheavedSpace(p, constant_sheaf(p, GF(7), 2))
        built = []
        init = Poset.__init__
        monkeypatch.setattr(Poset, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        sub = restrict(sp, ["c0200"])
        assert built == [1]
        assert sub.poset.elements == ("c0200",) and sub.poset.covers == frozenset()
        sub = restrict(sp, ["c0000", "c0399"])
        assert built == [1, 1]
        assert sub.sheaf.cover_maps == {("c0000", "c0399"): Matrix.identity(GF(7), 2)}
        assert sub.poset.strictly_above("c0000") == {"c0399"}

    def test_restrict_noncommuting_raises(self):
        f = noncommuting_diamond()
        with pytest.raises(CommutativityError):
            restrict(SheavedSpace(f.base, f), ["bot", "top"])


class TestInheritedComposites:
    """Restrictions take their composites from the parent; the slow
    reference is a fresh sheaf that computes its own."""

    def test_random_keep_sets(self):
        rng = random.Random(101)
        for ring in (QQ, GF(7)):
            for _ in range(25):
                sp = random_space(rng, random_poset(rng, rng.randint(1, 9)), ring)
                keep = [e for e in sp.poset.elements if rng.random() < 0.6]
                assert_matches_fresh_copy(restrict(sp, keep))

    def test_only_new_covers_are_checked(self, monkeypatch):
        p = diamond()
        sp = SheavedSpace(p, constant_sheaf(p, QQ, 2))
        checked = []
        real = sheaf_module._checked_map
        monkeypatch.setattr(sheaf_module, "_checked_map",
                            lambda cov, *rest: checked.append(cov) or real(cov, *rest))
        restrict(sp, ["bot", "l", "top"])  # every cover is the parent's
        assert checked == []
        restrict(sp, ["bot", "top"])
        assert checked == [("bot", "top")]

    def test_chains_of_restrictions(self):
        rng = random.Random(103)
        for ring in (QQ, GF(5)):
            for _ in range(10):
                sp = random_space(rng, random_poset(rng, rng.randint(2, 10)), ring)
                while len(sp.poset):
                    k = min(len(sp.poset), rng.randint(1, 2))
                    drop = set(rng.sample(sp.poset.elements, k))
                    parent, sp = sp, restrict(sp, set(sp.poset.elements) - drop)
                    assert_matches_fresh_copy(sp)
                    # a cover the parent had keeps its Matrix
                    had = parent.sheaf.cover_maps
                    assert all(m is had[c] for c, m in sp.sheaf.cover_maps.items() if c in had)


@given(
    seed=st.integers(0, 10**6),
    ring=st.sampled_from([QQ, GF(2), GF(7)]),
    masks=st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_inherited_composites_match_fresh_copy(seed, ring, masks):
    rng = random.Random(seed)
    sp = random_space(rng, random_poset(rng, rng.randint(1, 10)), ring)
    for mask in masks:
        sp = restrict(sp, [e for i, e in enumerate(sp.poset.elements) if mask >> i & 1])
        assert_matches_fresh_copy(sp)


class TestGlobalSections:
    def test_constant_on_connected(self):
        p = diamond()
        sp = SheavedSpace(p, constant_sheaf(p, QQ, 3))
        assert len(global_sections(sp)) == 3

    def test_constant_counts_components(self):
        p = build_poset(["a", "b", "x", "y"], [("a", "x"), ("b", "y")])
        sp = SheavedSpace(p, constant_sheaf(p, QQ, 1))
        assert len(global_sections(sp)) == 2

    def test_skyscraper_at_non_maximal(self):
        p = build_poset(["a", "b"], [("a", "b")])
        sp = SheavedSpace(p, supported_sheaf(p, {"a"}, QQ))
        # the section must restrict to zero above, and the map is zero, so dim 1
        assert len(global_sections(sp)) == 1

    def test_scaling_map_kills_nothing(self):
        p = build_poset(["a", "b"], [("a", "b")])
        f = Sheaf(p, QQ, {"a": 1, "b": 1}, {("a", "b"): from_rows(QQ, [[Fraction(1, 2)]])})
        assert len(global_sections(SheavedSpace(p, f))) == 1

    def test_sections_satisfy_compatibility(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 7))
            f = random_sheaf(rng, p, QQ)
            sp = SheavedSpace(p, f)
            ends = list(itertools.accumulate(f.stalk_dim[e] for e in p.elements))
            for vec in global_sections(sp):
                parts = {e: vec[end - f.stalk_dim[e]:end] for e, end in zip(p.elements, ends)}
                for (u, v) in p.covers:
                    assert apply(f.cover_maps[(u, v)], parts[u]) == tuple(parts[v])

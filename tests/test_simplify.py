import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    bing_house_with_apexes,
    circle_with_apex,
    four_point_circle,
    p5_gadget,
)
from gen import (
    from_rows,
    gauged,
    gauged_suite,
    posets_isomorphic,
    random_ideal,
    random_poset,
    random_sheaf,
    rebuilt_subposet,
    random_space,
    rescaled,
    supported_sheaf,
    zigzag_poset,
)
from posheaf import sheaf as sheaf_module
from posheaf import poset as poset_module
from posheaf import simplify as simplify_module
from posheaf.cohomology import (
    field_cohomology,
    is_acyclic,
    roos_complex,
)
from posheaf.documents import document_space, parse_space, space_to_data
from posheaf.exact_linalg import GF, QQ, Matrix
from posheaf.poset import build_poset, order_complex
from posheaf.sheaf import (
    Sheaf,
    SheavedSpace,
    _WorkingSubspace,
    check_commutativity,
    constant_sheaf,
    require_commutative,
    restrict,
)
from posheaf.simplify import (
    ACYCLIC_DOWNSET,
    ACYCLIC_UPSET,
    BEATS,
    DOWNBEAT,
    RULES,
    STRATEGIES,
    STRATEGY_RULES,
    UPBEAT,
    ReplayError,
    SimplificationTrace,
    SimplifyError,
    TraceStep,
    _first_rule,
    collapse_beat,
    core,
    find_beats,
    poset_core,
    remove_acyclic_downset,
    removable_by_acyclic_downset,
    removable_by_acyclic_upset,
    sheaf_cohomology,
    simplify_pipeline,
)
from test_poset import downset, upset


def const_space(p, ring=QQ, r=1):
    return SheavedSpace(p, constant_sheaf(p, ring, r))


def removable_updown(sp, s) -> bool:
    """What the constant-updown pass accepts at s."""
    return removable_by_acyclic_downset(sp, s) or removable_by_acyclic_upset(sp, s)


def unreduced_betti(sp):
    """Betti numbers from the Roos complex of the space as given, which
    uses no removal rule (`sheaf_cohomology` works on the beat core)."""
    return field_cohomology(roos_complex(sp)).betti_trimmed()


class TestFindBeats:
    def test_circle_has_none(self):
        assert find_beats(const_space(four_point_circle())) == []

    def test_chain(self):
        p = build_poset(["a", "b"], [("a", "b")])
        reports = find_beats(const_space(p))
        kinds = {(r.element, r.kind) for r in reports}
        assert kinds == {("a", UPBEAT), ("b", DOWNBEAT)}

    def test_upbeat_blocked_by_singular_map(self):
        p = build_poset(["a", "b"], [("a", "b")])
        f = Sheaf(p, QQ, {"a": 1, "b": 1}, {("a", "b"): from_rows(QQ, [[0]])})
        reports = find_beats(SheavedSpace(p, f))
        assert [(r.element, r.kind) for r in reports] == [("b", DOWNBEAT)]

    def test_upbeat_blocked_by_non_square_map(self):
        p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        f = Sheaf(
            p,
            QQ,
            {"a": 1, "b": 1, "c": 2},
            {
                ("a", "c"): from_rows(QQ, [[1], [0]]),
                ("b", "c"): from_rows(QQ, [[0], [1]]),
            },
        )
        # a and b each have a unique upper cover, but the maps are not square
        assert find_beats(SheavedSpace(p, f)) == []

    def test_sorted_by_name(self):
        p = build_poset(["z", "m", "a"], [("z", "m"), ("m", "a")])
        names = [r.element for r in find_beats(const_space(p))]
        assert names == sorted(names)


class TestCollapse:
    def test_refuses_non_beat(self):
        sp = const_space(four_point_circle())
        with pytest.raises(SimplifyError):
            collapse_beat(sp, "x")

    def test_removes_one_element(self):
        p = build_poset(["a", "b"], [("a", "b")])
        sp = collapse_beat(const_space(p), "b")
        assert sp.poset.elements == ("a",)

    def test_preserves_cohomology(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 8))
            f = random_sheaf(rng, p, rng.choice([QQ, GF(3)]))
            sp = SheavedSpace(p, f)
            beats = find_beats(sp)
            if not beats:
                continue
            before = unreduced_betti(sp)
            after = unreduced_betti(collapse_beat(sp, rng.choice(beats).element))
            assert after == before
            checked += 1
        assert checked >= 10


class TestCore:
    def test_circle_is_its_own_core(self):
        sp = const_space(four_point_circle())
        c, trace = core(sp)
        assert c == sp and trace.steps == ()

    def test_cone_collapses_to_point(self):
        c, trace = core(const_space(circle_with_apex()))
        assert len(c.poset) == 1
        assert len(trace.steps) == 4

    def test_trace_replays(self):
        rng = random.Random(59)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 8))
            sp = SheavedSpace(p, random_sheaf(rng, p, QQ))
            c, trace = core(sp)
            assert trace.replay() == c
            assert find_beats(c) == []

    def test_random_order_gives_isomorphic_core(self):
        rng = random.Random(61)
        for _ in range(15):
            p = random_poset(rng, rng.randint(2, 9))
            sp = const_space(p, GF(2))
            c1, _ = core(sp)
            c2, _ = core(sp, rng=random.Random(rng.randrange(10**6)))
            assert posets_isomorphic(c1.poset, c2.poset) is not None


class TestCoreMemo:
    """A space keeps its deterministic core; a space that a removal loop
    returns is its own core."""

    @staticmethod
    def count_greedy(monkeypatch) -> list:
        runs = []
        greedy = simplify_module._greedy
        monkeypatch.setattr(simplify_module, "_greedy",
                            lambda *a: runs.append(a) or greedy(*a))
        return runs

    def test_second_call_returns_the_same_pair(self, monkeypatch):
        sp = const_space(circle_with_apex())
        first = core(sp)
        runs = self.count_greedy(monkeypatch)
        second = core(sp)
        assert second == first and second[0] is first[0] and runs == []
        assert second[1].steps == first[1].steps and len(first[1].steps) == 4

    def test_cohomology_then_core_reduces_once(self, monkeypatch):
        sp = const_space(circle_with_apex())
        runs = self.count_greedy(monkeypatch)
        sheaf_cohomology(sp)
        assert len(runs) == 1
        c, trace = core(sp)
        assert len(runs) == 1 and len(c.poset) == 1 and len(trace.steps) == 4

    def test_random_order_neither_reads_nor_writes_the_memo(self):
        sp = const_space(circle_with_apex())
        _, trace = core(sp, rng=random.Random(5))
        assert sp._core is None and len(trace.steps) == 4
        fake = sp._core = (None, ())
        _, trace = core(sp, rng=random.Random(5))
        assert sp._core is fake and len(trace.steps) == 4

    def test_reduced_spaces_are_their_own_cores(self, monkeypatch):
        sp = const_space(p5_gadget())
        reduced = [core(sp, rng=random.Random(7))[0]]
        reduced += [simplify_pipeline(sp, s)[0] for s in STRATEGIES]
        runs = self.count_greedy(monkeypatch)
        for out in reduced:
            c, trace = core(out)
            assert c is out and trace.steps == ()
        assert runs == []


class TestAcyclicRemovals:
    def test_gadget_apex_removable(self):
        sp = const_space(p5_gadget())
        assert removable_by_acyclic_downset(sp, "s")

    def test_circle_apex_not_removable(self):
        sp = const_space(circle_with_apex())
        assert not removable_by_acyclic_downset(sp, "s")

    def test_minimal_elements_not_removable(self):
        # strict downset is empty, and the empty complex does not count
        sp = const_space(p5_gadget())
        for e in ("a", "b", "c"):
            assert not removable_by_acyclic_downset(sp, e)

    def test_removal_refused(self):
        sp = const_space(circle_with_apex())
        with pytest.raises(SimplifyError):
            remove_acyclic_downset(sp, "s")

    def test_removal_preserves_cohomology_any_sheaf(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(60):
            p = random_poset(rng, rng.randint(2, 8))
            f = random_sheaf(rng, p, rng.choice([QQ, GF(5)]))
            sp = SheavedSpace(p, f)
            cands = [s for s in p.elements if removable_by_acyclic_downset(sp, s)]
            if not cands:
                continue
            s = rng.choice(cands)
            before = unreduced_betti(sp)
            after = unreduced_betti(remove_acyclic_downset(sp, s))
            assert after == before
            checked += 1
        assert checked >= 15

    def test_updown_predicate_covers_both_sides(self):
        sp = const_space(p5_gadget())
        assert removable_updown(sp, "s")  # acyclic downset
        assert removable_updown(sp, "a")  # upset is a chain
        circle = const_space(four_point_circle())
        for e in circle.poset.elements:
            # empty on one side, a two-point antichain on the other
            assert not removable_updown(circle, e)


def skyscraper_2_chain():
    """Q at x and 0 at y over the chain x < y: H^0 is Q, but 0 without x."""
    p = build_poset(["x", "y"], [("x", "y")])
    return SheavedSpace(p, supported_sheaf(p, {"x"}, QQ))


def diamond_zero_top():
    """x < v1, v2 < w over Q, stalk 0 at w only: the maps out of x are
    invertible, those into w are not, and without x H^0 is Q^2."""
    p = build_poset(["x", "v1", "v2", "w"],
                    [("x", "v1"), ("x", "v2"), ("v1", "w"), ("v2", "w")])
    return SheavedSpace(p, supported_sheaf(p, {"x", "v1", "v2"}, QQ))


class TestAcyclicUpsetAgainstSlowReference:
    """Wherever the acyclic-upset predicate holds, removing the element
    keeps the Betti numbers of the Roos complex: on random sheaves, on
    constant ones, on gauged constant ones, which are not constant, and
    on ideal sheaves, whose maps out of the ideal are not invertible."""

    KINDS = ("random", "gauged constant", "constant", "ideal")

    @classmethod
    def space(cls, rng):
        p = random_poset(rng, rng.randint(3, 10))
        ring, w = rng.choice([QQ, GF(2), GF(7)]), rng.randint(1, 2)
        kind = rng.choice(cls.KINDS)
        if kind == "random":
            f = random_sheaf(rng, p, ring)
        elif kind == "ideal":
            f = supported_sheaf(p, random_ideal(rng, p), ring, w)
        else:
            f = constant_sheaf(p, ring, w)
            f = gauged(rng, f) if kind == "gauged constant" else f
        return kind, SheavedSpace(p, f)

    @staticmethod
    def check(sp) -> int:
        """The number of elements the predicate lets go, each checked."""
        before, removed = unreduced_betti(sp), 0
        for x in sp.poset.elements:
            if RULES[ACYCLIC_UPSET](_WorkingSubspace(sp), x):
                after = unreduced_betti(restrict(sp, set(sp.poset.elements) - {x}))
                assert after == before, (sp.poset.elements, x)
                removed += 1
        return removed

    def test_seeded(self):
        rng = random.Random(163)
        removed = dict.fromkeys(self.KINDS, 0)
        for _ in range(400):
            kind, sp = self.space(rng)
            removed[kind] += self.check(sp)
        assert min(removed.values()) >= 50, removed

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis(self, seed):
        self.check(self.space(random.Random(seed))[1])

    @pytest.mark.parametrize("space", [skyscraper_2_chain, diamond_zero_top],
                             ids=["skyscraper-2-chain", "diamond-zero-top"])
    def test_refuses_a_map_that_is_not_invertible(self, space):
        sp = space()
        assert removable_by_acyclic_upset(const_space(sp.poset), "x")  # acyclic upset
        assert not RULES[ACYCLIC_UPSET](_WorkingSubspace(sp), "x")
        assert unreduced_betti(sp) == (1,)
        assert unreduced_betti(restrict(sp, set(sp.poset.elements) - {"x"})) != (1,)


def reference_acyclic(p, s, dual=False) -> bool:
    return is_acyclic(order_complex((upset if dual else downset)(p, s)))


class TestAcyclicityCertificates:
    @given(st.integers(0, 2**32), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_predicates_match_smith_form(self, seed, n):
        p = random_poset(random.Random(seed), n)
        sp = const_space(p)
        for s in p.elements:
            down, up = reference_acyclic(p, s), reference_acyclic(p, s, dual=True)
            assert removable_by_acyclic_downset(sp, s) == down
            assert removable_by_acyclic_upset(sp, s) == up

    def test_each_certificate_agrees_with_smith_form(self):
        rng = random.Random(139)
        rejected = accepted = 0
        for _ in range(200):
            p = random_poset(rng, rng.randint(1, 12))
            for dual in (False, True):
                mu = p.mobius(dual)
                for s in p.elements:
                    q = (upset if dual else downset)(p, s)
                    if mu[s]:
                        assert not is_acyclic(order_complex(q))
                        rejected += 1
                    if len(poset_core(q)) == 1:
                        assert is_acyclic(order_complex(q))
                        accepted += 1
        assert rejected > 1000 and accepted > 500

    def test_house_apexes_need_one_smith_form(self, monkeypatch):
        """Only the apexes' downset (the house: mu = 0, no beat) needs a
        Smith form; the verdict memo serves the second apex and replay.
        Each run builds its own poset and so computes its own verdict."""
        calls, in_replay = [], []
        acyclic = simplify_module.is_acyclic
        monkeypatch.setattr(simplify_module, "is_acyclic",
                            lambda k: calls.append(bool(in_replay)) or acyclic(k))
        replay = SimplificationTrace.replay

        def traced_replay(trace):
            in_replay.append(trace)
            try:
                return replay(trace)
            finally:
                in_replay.pop()

        monkeypatch.setattr(SimplificationTrace, "replay", traced_replay)
        for _ in range(2):
            calls.clear()
            p = bing_house_with_apexes()
            sp = SheavedSpace(p, constant_sheaf(p, GF(7)))
            out, trace = simplify_pipeline(sp, "acyclic-down")
            assert [(t.removed, t.rule) for t in trace.steps] == [
                ("apexU", ACYCLIC_DOWNSET), ("apexV", ACYCLIC_DOWNSET)]
            assert 1 <= len(calls) <= 2 and not any(calls)


class TestPipeline:
    def test_unknown_strategy(self):
        with pytest.raises(SimplifyError):
            simplify_pipeline(const_space(p5_gadget()), strategy="nope")

    def test_updown_takes_any_sheaf(self):
        p = build_poset(["a", "b"], [("a", "b")])
        f = Sheaf(p, QQ, {"a": 1, "b": 1}, {("a", "b"): from_rows(QQ, [[2]])})
        out, trace = simplify_pipeline(SheavedSpace(p, f), strategy="constant-updown")
        assert len(out.poset) == 1 and trace.replay() == out
        # the upset rule fires on a sheaf that is only isomorphic to a constant one
        p = zigzag_poset(dual=True)
        sp = SheavedSpace(p, gauged(random.Random(5), constant_sheaf(p, GF(7), 2)))
        out, trace = simplify_pipeline(sp, strategy="constant-updown")
        assert ACYCLIC_UPSET in {s.rule for s in trace.steps}
        assert sheaf_cohomology(out).betti_trimmed() == unreduced_betti(sp)

    def test_updown_keeps_skyscraper_base(self):
        # x's upset {y} is acyclic, but the map x -> y is not invertible,
        # and removing x would take H^0 from 1 to 0
        sp = skyscraper_2_chain()
        out, _ = simplify_pipeline(sp, strategy="constant-updown")
        assert "x" in out.poset
        step = TraceStep("x", ACYCLIC_UPSET)
        with pytest.raises(ReplayError):
            SimplificationTrace((step,), sp, sp).replay()

    def test_beats_strategy_stops_at_core(self):
        sp = const_space(circle_with_apex())
        out, trace = simplify_pipeline(sp, strategy="beats")
        assert len(out.poset) == 1

    def test_acyclic_down_fires_when_no_beats_exist(self):
        sp = const_space(zigzag_poset())
        assert find_beats(sp) == []
        out, trace = simplify_pipeline(sp, strategy="acyclic-down")
        assert len(out.poset) < len(sp.poset)
        assert any(s.rule == ACYCLIC_DOWNSET for s in trace.steps)

    def test_pipeline_preserves_cohomology(self):
        rng = random.Random(71)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 8))
            f = random_sheaf(rng, p, rng.choice([QQ, GF(3)]))
            sp = SheavedSpace(p, f)
            before = unreduced_betti(sp)
            for strategy in ("beats", "acyclic-down"):
                out, trace = simplify_pipeline(sp, strategy=strategy)
                assert sheaf_cohomology(out).betti_trimmed() == before
                assert trace.replay() == out

    def test_constant_updown_preserves_betti(self):
        rng = random.Random(73)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 9))
            sp = const_space(p, rng.choice([QQ, GF(2)]))
            before = unreduced_betti(sp)
            out, _ = simplify_pipeline(sp, strategy="constant-updown")
            assert sheaf_cohomology(out).betti_trimmed() == before

    def test_seeded_runs_reproducible(self):
        p = p5_gadget()
        sp = const_space(p)
        a, ta = simplify_pipeline(sp, strategy="acyclic-down", rng=random.Random(9))
        b, tb = simplify_pipeline(sp, strategy="acyclic-down", rng=random.Random(9))
        assert a == b and ta.steps == tb.steps


def fresh_copy(sp):
    """An equal space that shares no object, and so no memo, with sp."""
    ring = sp.sheaf.ring
    return document_space(parse_space(space_to_data(sp, "Q" if ring == QQ else f"GF:{ring.p}")))


class TestPipelineStartsFromTheCore:
    """`simplify_pipeline` starts from the core (the memoized one without a
    random order) and then makes its passes: it takes the steps, and
    reaches the space, of the one greedy loop from a fresh copy of the
    input, and with an `rng` it makes that loop's draws."""

    @staticmethod
    def spaces(seed):
        rng = random.Random(seed)
        for p in (p5_gadget(), zigzag_poset(), zigzag_poset(dual=True)):
            for ring in (QQ, GF(7)):
                yield SheavedSpace(p, random_sheaf(rng, p, ring))
                yield SheavedSpace(p, gauged(rng, constant_sheaf(p, ring, 2)))
        yield from gauged_suite(seed, 150)

    @staticmethod
    def assert_one_loop(sp, strategy, memo_first):
        """The pipeline against the one loop; returns the steps after the core."""
        ref_out, ref_trace = simplify_module._greedy(fresh_copy(sp), STRATEGY_RULES[strategy], None)
        if memo_first:
            sheaf_cohomology(sp)
        out, trace = simplify_pipeline(sp, strategy)
        assert trace.steps == ref_trace.steps and trace.initial is sp and trace.final is out
        assert out == ref_out and out.poset.elements == ref_out.poset.elements
        c, head = core(sp)
        assert trace.steps[:len(head.steps)] == head.steps
        tail = trace.steps[len(head.steps):]
        if tail:
            assert tail[0].rule not in BEATS
        else:
            assert out is c
        return tail

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_seeded(self, strategy):
        tails = [self.assert_one_loop(sp, strategy, k % 2)
                 for k, sp in enumerate(self.spaces(163))]
        passes = [t for t in tails if t]
        if strategy == "beats":
            assert passes == []
        else:
            # the pass fires, and some of its removals leave a beat behind
            assert len(passes) >= 8
            assert any(step.rule in BEATS for t in passes for step in t)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_order(self, strategy):
        passes = 0
        for k, sp in enumerate(self.spaces(167)):
            rules = STRATEGY_RULES[strategy]
            ref_out, ref_trace = simplify_module._greedy(fresh_copy(sp), rules, random.Random(k))
            out, trace = simplify_pipeline(sp, strategy, rng=random.Random(k))
            assert trace.steps == ref_trace.steps and trace.initial is sp
            assert out == ref_out and out.poset.elements == ref_out.poset.elements
            assert sp._core is None or not find_beats(sp)
            passes += any(step.rule not in BEATS for step in trace.steps)
        assert (passes >= 8) == (strategy != "beats")

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 12),
        ring=st.sampled_from([QQ, GF(7)]),
        strategy=st.sampled_from(STRATEGIES),
        memo_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis(self, seed, n, ring, strategy, memo_first):
        rng = random.Random(seed)
        p = random_poset(rng, n, rng.choice([None, 0.3]))
        sp = random_space(rng, p, ring)
        self.assert_one_loop(rescaled(rng, sp) if ring == QQ else sp, strategy, memo_first)


class TestRuleTable:
    def test_every_rule_is_reached_by_a_strategy(self):
        assert set(BEATS).union(*STRATEGY_RULES.values()) == set(RULES)
        chain = build_poset(["a", "b"], [("a", "b")])
        seen = set()
        for p in (chain, zigzag_poset(), zigzag_poset(dual=True)):
            for strategy in STRATEGIES:
                _, trace = simplify_pipeline(const_space(p), strategy)
                seen |= {s.rule for s in trace.steps}
        assert seen == set(RULES)

    def test_core_is_the_beats_strategy(self):
        rng = random.Random(113)
        for k in range(30):
            p = random_poset(rng, rng.randint(1, 9))
            sp = random_space(rng, p, rng.choice([QQ, GF(3)]))
            _, by_core = core(sp, rng=random.Random(k))
            _, by_pipeline = simplify_pipeline(sp, "beats", rng=random.Random(k))
            assert by_core.steps == by_pipeline.steps
            assert core(sp)[1].steps == simplify_pipeline(sp, "beats")[1].steps


def _zero_map_space():
    """a, b < c over Q with stalks 0, 2, 0: H^0 has dimension 2.  The
    upset of b is acyclic, but removing b would lose H^0, and the
    acyclic-upset rule refuses it: the map b -> c is not invertible."""
    p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    maps = {("a", "c"): Matrix(QQ, 0, 0, []), ("b", "c"): Matrix(QQ, 0, 2, [])}
    return SheavedSpace(p, Sheaf(p, QQ, {"a": 0, "b": 2, "c": 0}, maps))


@pytest.mark.parametrize(
    "space, step",
    [
        (_zero_map_space, TraceStep("b", "acyclic-upset")),
        # b is a downbeat only: it has no upper cover
        (lambda: const_space(build_poset(["a", "b"], [("a", "b")])), TraceStep("b", UPBEAT)),
        # x has one upper cover, but the map x -> y is 0 x 1
        (skyscraper_2_chain, TraceStep("x", UPBEAT)),
        (lambda: const_space(circle_with_apex()), TraceStep("s", ACYCLIC_DOWNSET)),
        (lambda: const_space(p5_gadget()), TraceStep("nope", DOWNBEAT)),
        (lambda: const_space(p5_gadget()), TraceStep("s", "weak-point")),
    ],
    ids=["constant-only-rule", "wrong-beat-kind", "upbeat-not-invertible", "downset-not-acyclic",
         "missing-element", "unknown-rule"],
)
def test_replay_refuses_invalid_step(space, step):
    sp = space()
    with pytest.raises(SimplifyError):
        SimplificationTrace((step,), sp, sp).replay()


def test_replay_checks_exactly_the_recorded_rule():
    sp = const_space(build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    # b is both a downbeat and an upbeat, and either record replays
    for rule in BEATS:
        out = SimplificationTrace((TraceStep("b", rule),), sp, sp).replay()
        assert out.poset == build_poset(["a", "c"], [("a", "c")])
    # a is an upbeat, but it has no lower cover
    assert len(SimplificationTrace((TraceStep("a", UPBEAT),), sp, sp).replay().poset) == 2
    with pytest.raises(ReplayError):
        SimplificationTrace((TraceStep("a", DOWNBEAT),), sp, sp).replay()


class RecordingMemo(dict):
    """A composite memo that remembers every key written to it."""

    def __init__(self):
        super().__init__()
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


def test_no_composite_is_made_twice(monkeypatch):
    """Restrictions share the memo of a checked space, so across the
    pipeline and the cohomology of its result every (u, v) composite is
    made at most once, and sheaf.py composes only to make one."""
    rng = random.Random(107)
    spaces = []
    for _ in range(12):
        ring, tag = rng.choice([(QQ, "Q"), (GF(7), "GF:7")])
        sp = random_space(rng, random_poset(rng, rng.randint(3, 9)), ring)
        sp = document_space(parse_space(space_to_data(sp, tag)))
        assert check_commutativity(sp.sheaf)[0]
        sp.sheaf._composites = RecordingMemo()
        spaces.append(sp)
    calls = []
    compose = sheaf_module.compose
    monkeypatch.setattr(
        sheaf_module, "compose", lambda a, b: calls.append(1) or compose(a, b)
    )
    removed = made = 0
    for sp in spaces:
        memo = sp.sheaf._composites
        reduced, trace = simplify_pipeline(sp, "acyclic-down")
        assert reduced.sheaf._composites is memo
        sheaf_cohomology(reduced)
        removed += len(trace.steps)
        assert len(set(memo.written)) == len(memo.written)
        made += len(memo.written)
    assert removed > 0 and made > 0
    assert len(calls) <= made


def _reference_restrict(sp, keep):
    """`restrict` as it was before removals became local: the subposet is
    rebuilt by `gen.rebuilt_subposet`, and the child is built and validated
    by the `Sheaf` constructor from the parent's composites."""
    f = sp.sheaf
    require_commutative(f)
    sub = rebuilt_subposet(sp.poset, keep)
    dims = {e: f.stalk_dim[e] for e in sub.elements}
    g = Sheaf(sub, f.ring, dims, {c: f.restriction(*c) for c in sub.covers})
    return SheavedSpace(sub, g)


def _reference_greedy(sp, rules, rng):
    """The slow reference for `simplify._greedy`: `find_beats` over the
    whole space after every removal, restrictions rebuilt from scratch."""
    out, steps = sp, []
    while True:
        beats = find_beats(out)
        if beats:
            b = rng.choice(beats) if rng is not None else beats[0]
            out = _reference_restrict(out, set(out.poset.elements) - {b.element})
            steps.append(TraceStep(b.element, b.kind))
            continue
        candidates = sorted(out.poset.elements) if rules else []
        if rng is not None:
            rng.shuffle(candidates)
        before = len(steps)
        for e in candidates:
            rule = _first_rule(_WorkingSubspace(out), e, rules)
            if rule is not None:
                out = _reference_restrict(out, set(out.poset.elements) - {e})
                steps.append(TraceStep(e, rule))
        if len(steps) == before:
            break
    return out, tuple(steps)


class TestAgainstSlowReference:
    """The beat worklist and local restrictions take the same steps, in
    the same order and with the same random choices, as the reference."""

    @staticmethod
    def assert_same(got, expected):
        (out, trace), (ref_out, ref_steps) = got, expected
        assert trace.steps == ref_steps
        assert out == ref_out and out.poset.elements == ref_out.poset.elements

    def suite(self, seed, count):
        """Random spaces; those over Q rescaled to non-integral maps, as in
        `gen.gauged_suite`."""
        rng = random.Random(seed)
        for _ in range(count):
            p = random_poset(rng, rng.randint(1, 12))
            ring = rng.choice([QQ, GF(3), GF(7)])
            sp = random_space(rng, p, ring)
            yield rescaled(rng, sp) if ring == QQ else sp

    @pytest.mark.parametrize("k", [None, 0, 1, 2])
    def test_core(self, k):
        for sp in self.suite(151, 30):
            rng = None if k is None else random.Random(k)
            ref_rng = None if k is None else random.Random(k)
            self.assert_same(core(sp, rng=rng), _reference_greedy(sp, (), ref_rng))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", [None, 0, 1])
    def test_pipeline(self, strategy, k):
        for sp in self.suite(157, 25):
            rng = None if k is None else random.Random(k)
            ref_rng = None if k is None else random.Random(k)
            self.assert_same(simplify_pipeline(sp, strategy, rng=rng),
                             _reference_greedy(sp, STRATEGY_RULES[strategy], ref_rng))


def logged_calls(monkeypatch, *names):
    """The arguments of every call to `names` from the poset, sheaf and
    simplify modules, logged into the list returned."""
    log = []
    for module in (poset_module, sheaf_module, simplify_module):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, lambda *a, fn=fn: log.append(a) or fn(*a))
    return log


def test_chain_core_tests_only_the_covers_of_each_removal(monkeypatch):
    """On a 100-element chain `core` tests every element for a beat once,
    then only the covers of each removed element: at most 3n predicate
    calls, where a `find_beats` after every removal made 5,050.  Neither
    the loop nor the replay rebuilds a poset from scratch."""
    n = 100
    names = [f"c{i:04d}" for i in range(n)]
    sp = const_space(build_poset(names, list(zip(names, names[1:]))), GF(7), 2)
    tested = []
    for rule in BEATS:
        monkeypatch.setitem(
            RULES, rule, lambda sp, e, predicate=RULES[rule]: tested.append(e) or predicate(sp, e))
    rebuilt = logged_calls(monkeypatch, "induced_subposet", "build_poset")
    out, trace = core(sp)
    assert len(out.poset) == 1 and len(trace.steps) == n - 1
    # find_beats tests each element, and each removal the cover it leaves
    assert 2 * n - 1 <= len(tested) <= 3 * n
    assert trace.replay() == out
    assert rebuilt == []


def test_house_apexes_leave_without_a_rebuilt_poset(monkeypatch):
    """The acyclic-downset pass takes both apexes off Bing's house, and
    the strict downset it tests, its pipeline replay and a second replay
    derive every poset by the bridge rule: none goes through
    `build_poset`."""
    p = bing_house_with_apexes()
    sp = SheavedSpace(p, constant_sheaf(p, GF(7)))
    rebuilt = logged_calls(monkeypatch, "build_poset")
    out, trace = simplify_pipeline(sp, "acyclic-down")
    assert set(p.elements) - set(out.poset.elements) == {"apexU", "apexV"}
    assert trace.replay() == out
    assert rebuilt == []

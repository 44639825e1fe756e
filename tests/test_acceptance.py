"""Acceptance suite.

Each criterion prints exactly one pass/fail line (pytest -s shows them).
Criterion 7 asserts a degree-shift relation that does not hold as
stated for upward restriction maps; it is kept as a strict expected
failure, and the companion test asserts the direction that does hold.
See the project notes for the full analysis.
"""

import contextlib
import io
import json
import random

import pytest

from fixtures import (
    bing_house_triangles,
    bing_house_with_apexes,
    circle_with_apex,
    four_point_circle,
    p5_gadget,
    simplicial_complex,
)
from gen import (
    global_sections,
    posets_isomorphic,
    random_ideal,
    random_poset,
    random_sheaf,
    rebuilt_subposet,
    supported_sheaf,
)
from posheaf.cli import main
from posheaf.cohomology import (
    field_cohomology,
    integral_homology,
    is_acyclic,
    reduce_homology,
    roos_complex,
    simplicial_cochain_complex,
)
from posheaf.documents import document_space, parse_space, space_to_data
from posheaf.exact_linalg import GF, QQ
from posheaf.poset import build_poset, order_complex
from posheaf.sheaf import SheavedSpace, check_commutativity, constant_sheaf, restrict
from posheaf.simplify import (
    SimplifyError,
    collapse_beat,
    core,
    find_beats,
    remove_acyclic_downset,
    removable_by_acyclic_downset,
    removable_by_acyclic_upset,
    sheaf_cohomology,
    simplify_pipeline,
)


def report(n, label, ok=True):
    print(f"\ncriterion {n:2d} [{label}]: {'PASS' if ok else 'FAIL'}")


def betti(sp):
    """Betti numbers from the Roos complex of the space as given: the
    slow reference, which removes nothing (`sheaf_cohomology` works on
    the beat core)."""
    return field_cohomology(roos_complex(sp)).betti_trimmed()


def test_criterion_01_beat_collapse_invariance():
    rng = random.Random(101)
    spaces = 0
    collapses = 0
    while spaces < 200:
        p = random_poset(rng, rng.randint(4, 10))
        ring = rng.choice([QQ, GF(7)])
        sp = SheavedSpace(p, random_sheaf(rng, p, ring, max_dim=3))
        spaces += 1
        before = betti(sp)
        for r in find_beats(sp):
            after = betti(collapse_beat(sp, r.element))
            assert after == before, (r, before, after)
            collapses += 1
    assert collapses >= 200
    report(1, f"beat collapse invariance, {spaces} spaces, {collapses} collapses")


def test_criterion_02_core_confluence():
    rng = random.Random(103)
    for _ in range(50):
        p = random_poset(rng, rng.randint(4, 10))
        ring = rng.choice([QQ, GF(7)])
        sp = SheavedSpace(p, random_sheaf(rng, p, ring))
        h = betti(sp)
        cores = [core(sp, rng=random.Random(rng.randrange(10**9)))[0]
                 for _ in range(5)]
        first = cores[0]
        for c in cores:
            assert posets_isomorphic(first.poset, c.poset) is not None
            assert sorted(first.sheaf.stalk_dim.values()) == \
                sorted(c.sheaf.stalk_dim.values())
            assert betti(c) == h
    report(2, "core confluence, 50 spaces x 5 orders")


def test_criterion_03_cores_have_no_beats():
    rng = random.Random(107)
    for _ in range(50):
        p = random_poset(rng, rng.randint(4, 10))
        sp = SheavedSpace(p, random_sheaf(rng, p, QQ))
        c, _ = core(sp, rng=random.Random(rng.randrange(10**9)))
        assert find_beats(c) == []
    report(3, "computed cores are beat-free")


def test_criterion_04_acyclic_downset_removal():
    rng = random.Random(109)
    p = p5_gadget()
    sp0 = SheavedSpace(p, constant_sheaf(p, QQ))
    assert removable_by_acyclic_downset(sp0, "s")
    for _ in range(100):
        ring = rng.choice([QQ, GF(7)])
        sp = SheavedSpace(p, random_sheaf(rng, p, ring))
        ok, err = check_commutativity(sp.sheaf)
        assert ok, err
        assert betti(remove_acyclic_downset(sp, "s")) == betti(sp)
    bad = circle_with_apex()
    with pytest.raises(SimplifyError):
        remove_acyclic_downset(
            SheavedSpace(bad, constant_sheaf(bad, QQ)), "s"
        )
    report(4, "gadget apex removal over 100 sheaves, refusal on circle apex")


def test_criterion_05_mccord_consistency():
    rng = random.Random(113)
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 10))
        h = betti(SheavedSpace(p, constant_sheaf(p, QQ)))
        k = order_complex(p)
        hs = field_cohomology(simplicial_cochain_complex(k, QQ))
        assert h == hs.betti_trimmed()
    report(5, "constant sheaf cohomology matches order complex, 100 posets")


def test_criterion_06_circle_fixture():
    p = four_point_circle()
    assert betti(SheavedSpace(p, constant_sheaf(p, QQ))) == (1, 1)
    h = reduce_homology(integral_homology(order_complex(p)))
    assert h.betti == (0, 1)
    assert h.torsion_trimmed() == ()
    report(6, "circle fixture: Betti (1,1), integral homology (Z, Z)")


def _shift_pairs(count, seed=127):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p = random_poset(rng, rng.randint(4, 10))
        s = rng.choice(p.elements)
        if len(p.strictly_below(s)) < 2:
            continue
        down = sheaf_cohomology(
            SheavedSpace(p, supported_sheaf(p, p.strictly_below(s), QQ, w=2))
        ).betti
        sky = sheaf_cohomology(
            SheavedSpace(p, supported_sheaf(p, {s}, QQ, w=2))
        ).betti
        pairs.append((p, s, down, sky))
    return pairs


@pytest.mark.xfail(
    strict=True,
    reason="the stated shift direction fails with upward restriction maps; "
    "the valid relation is the mirrored one checked by the next test",
)
def test_criterion_07_degree_shift_as_stated():
    def dim(b, j):
        return b[j] if 0 <= j < len(b) else 0

    for p, s, down, sky in _shift_pairs(50):
        top = max(len(down), len(sky)) + 1
        for j in range(2, top):
            assert dim(down, j) == dim(sky, j - 1), (p.elements, s, down, sky)
    report(7, "degree shift as stated")


def test_criterion_07_degree_shift_mirrored():
    def dim(b, j):
        return b[j] if 0 <= j < len(b) else 0

    low_degree_notes = 0
    for p, s, down, sky in _shift_pairs(50):
        top = max(len(down), len(sky)) + 1
        for j in range(2, top):
            assert dim(sky, j) == dim(down, j - 1), (p.elements, s, down, sky)
        if dim(sky, 1) != dim(down, 0):
            low_degree_notes += 1
    report(7, f"mirrored degree shift, 50 pairs "
              f"({low_degree_notes} low-degree disagreements observed, not asserted)")


def test_criterion_08_ideal_sheaf_cohomology():
    rng = random.Random(131)
    checked = 0
    while checked < 50:
        p = random_poset(rng, rng.randint(2, 10))
        ideal = random_ideal(rng, p)
        if not ideal:
            continue
        h = betti(SheavedSpace(p, supported_sheaf(p, ideal, QQ)))
        sub = build_poset(
            sorted(ideal),
            [(u, v) for (u, v) in p.covers if u in ideal and v in ideal],
        )
        hs = field_cohomology(
            simplicial_cochain_complex(order_complex(sub), QQ)
        )
        assert h == hs.betti_trimmed(), (p.elements, sorted(ideal))
        checked += 1
    report(8, "ideal sheaf cohomology matches its order complex, 50 ideals")


def test_criterion_09_constant_updown_removal():
    rng = random.Random(137)
    removals = 0
    for _ in range(100):
        p = random_poset(rng, rng.randint(2, 10))
        h = reduce_homology(integral_homology(order_complex(p)))
        sp = SheavedSpace(p, constant_sheaf(p, QQ))
        for s in p.elements:
            if not (removable_by_acyclic_downset(sp, s) or removable_by_acyclic_upset(sp, s)):
                continue
            # removed as the library removes it, on a working subspace
            q = restrict(sp, set(p.elements) - {s}).poset
            assert q == rebuilt_subposet(p, q.elements)
            hq = reduce_homology(integral_homology(order_complex(q)))
            assert (h.betti_trimmed(), h.torsion_trimmed()) == \
                (hq.betti_trimmed(), hq.torsion_trimmed()), (p.elements, s)
            removals += 1
    assert removals >= 100
    report(9, f"up/down removal preserves integral homology, {removals} removals")


def test_criterion_10_bing_house():
    house = simplicial_complex(bing_house_triangles())
    assert is_acyclic(house)
    assert reduce_homology(integral_homology(house)).is_trivial()

    p = bing_house_with_apexes()
    beats = {r.element for r in find_beats(SheavedSpace(p, constant_sheaf(p, GF(7))))}
    assert "apexU" not in beats and "apexV" not in beats

    sp = SheavedSpace(p, constant_sheaf(p, GF(7)))
    before = betti(sp)
    out, trace = simplify_pipeline(sp, strategy="acyclic-down")
    removed = {s.removed for s in trace.steps}
    assert {"apexU", "apexV"} <= removed
    assert betti(out) == before

    rng = random.Random(139)
    for _ in range(5):
        ring = rng.choice([QQ, GF(7)])
        sp = SheavedSpace(p, random_sheaf(rng, p, ring, max_dim=2, summands=6))
        before = betti(sp)
        out, trace = simplify_pipeline(sp, strategy="acyclic-down")
        assert {"apexU", "apexV"} <= {s.removed for s in trace.steps}
        assert betti(out) == before
    report(10, "Bing's house apex removal certified, constant + 5 random sheaves")


def test_criterion_11_structural_suite(tmp_path):
    rng = random.Random(149)
    for i in range(30):
        p = random_poset(rng, rng.randint(1, 8))
        ring = rng.choice([QQ, GF(7)])
        sp = SheavedSpace(p, random_sheaf(rng, p, ring))

        c = roos_complex(sp)
        c.check_d_squared()

        h = sheaf_cohomology(sp)
        h0 = h.betti[0] if h.betti else 0
        assert h0 == len(global_sections(sp))

        keep1 = [e for e in p.elements if rng.random() < 0.8]
        keep2 = [e for e in keep1 if rng.random() < 0.8]
        assert restrict(restrict(sp, keep1), keep2) == restrict(sp, keep2)

        tag = "Q" if ring is QQ else "GF:7"
        data = space_to_data(sp, tag)
        path = tmp_path / f"rt{i}.json"
        path.write_text(json.dumps(data))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["validate", str(path)])
        assert code == 0
        assert buf.getvalue().strip() == "ok"
        assert document_space(parse_space(data)) == sp
    report(11, "d^2=0, H^0=Gamma, restrict transitivity, format round-trip")

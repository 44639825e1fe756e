import hashlib
import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    bing_house_poset,
    bing_house_with_apexes,
    circle_with_apex,
    face_poset,
    four_point_circle,
    p5_gadget,
)
from gen import random_poset, random_sheaf, random_space, rescaled
from posheaf import __version__, cli
from posheaf import cohomology as cohomology_module
from posheaf import poset as poset_module
from posheaf import sheaf as sheaf_module
from posheaf import simplify as simplify_module
from posheaf.cli import main
from posheaf.cohomology import integral_homology, reduce_homology
from posheaf.documents import (DocumentError, _parse_scalar, document_space, dump_json,
                               parse_space, space_to_data)
from posheaf.exact_linalg import GF, QQ, LinalgError, Matrix
from posheaf.poset import MAX_CHAINS, build_poset, chain_count, order_complex
from posheaf.sheaf import SheavedSpace, constant_sheaf, restrict
from posheaf.simplify import (STRATEGIES, SimplificationTrace, TraceStep, poset_core,
                              sheaf_cohomology)
from test_cohomology import RP2


def write_doc(tmp_path, data, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def circle_doc(field="Q"):
    return {
        "field": field,
        "elements": ["a", "b", "x", "y"],
        "covers": [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]],
    }


def poset_doc(p, field="Q"):
    """The constant rank-1 sheaf on a poset."""
    return {"field": field, "elements": list(p.elements), "covers": sorted(p.covers)}


def chain_doc(n, field="GF:7"):
    names = [f"c{i:04d}" for i in range(n)]
    return {"field": field, "elements": names,
            "covers": [[u, v] for u, v in zip(names, names[1:])]}


def antichain_sum_doc(layers, field="GF:7"):
    """The ordinal sum of `layers` two-element antichains.

    No element is a beat and every Moebius value is nonzero, so no rule
    removes anything.  Both elements of a layer above the first have the
    same atoms, so it is no simplicial face poset: its cohomology needs
    all 3^layers - 1 chains.
    """
    layer = [[f"l{i:02d}{s}" for s in "ab"] for i in range(layers)]
    return {"field": field, "elements": [e for pair in layer for e in pair],
            "covers": [[u, v] for lo, hi in zip(layer, layer[1:]) for u in lo for v in hi]}


def boundary_of_simplex(n):
    """The face poset of the boundary of the simplex on n vertices."""
    return face_poset(itertools.combinations([f"v{i}" for i in range(n)], n - 1))


def with_block(stalks, maps, field="Q", elements=("a", "b"), covers=(("a", "b"),)):
    """A document on `elements` and `covers` with the given sheaf block."""
    return {"field": field, "elements": list(elements), "covers": [list(c) for c in covers],
            "sheaf": {"stalks": stalks, "maps": maps}}


IGNORED_BLOCK = "warning: sheaf block ignored for integral homology\n"


def two_chain_doc():
    return {
        "field": "Q",
        "elements": ["lo", "hi"],
        "covers": [["lo", "hi"]],
        "sheaf": {
            "stalks": {"lo": 1, "hi": 1},
            "maps": {"lo->hi": [["1/2"]]},
        },
    }


def circle_sheaf_doc(scalars):
    """The four-point circle with rank-1 stalks and the given map scalars."""
    keys = ["a->x", "a->y", "b->x", "b->y"]
    return dict(circle_doc(), sheaf={
        "stalks": {e: 1 for e in circle_doc()["elements"]},
        "maps": {k: [[x]] for k, x in zip(keys, scalars)},
    })


def oversized_result_doc():
    """The circle plus p < m < y and p < x; p->m and m->y have 3,000 digits.

    Removing the downbeat m composes them into a 6,000-digit entry, more
    digits than Python writes as a string.
    """
    doc = circle_doc()
    doc["elements"] += ["p", "m"]
    doc["covers"] += [["p", "m"], ["m", "y"], ["p", "x"]]
    maps = {f"{u}->{v}": [["1"]] for u, v in doc["covers"]}
    maps["p->m"] = maps["m->y"] = [["7" * 3000]]
    doc["sheaf"] = {"stalks": dict.fromkeys(doc["elements"], 1), "maps": maps}
    return doc


def noncommuting_doc():
    i = [["1"]]
    return {
        "field": "Q",
        "elements": ["bot", "l", "r", "top"],
        "covers": [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]],
        "sheaf": {
            "stalks": {"bot": 1, "l": 1, "r": 1, "top": 1},
            "maps": {
                "bot->l": i, "bot->r": i, "l->top": i, "r->top": [["-1"]],
            },
        },
    }


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", write_doc(tmp_path, circle_doc())]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_long_chain(self, tmp_path, capsys):
        # 1,100 elements: the commutativity check has no square to compare
        assert main(["validate", write_doc(tmp_path, chain_doc(1100))]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "invalid document" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_structure_errors(self, tmp_path, capsys):
        cases = [
            {"field": "Q", "elements": ["a", "a"], "covers": []},
            {"field": "Q", "elements": ["a"], "covers": [["a", "b"]]},
            {"field": "Q", "elements": ["a", "b"],
             "covers": [["a", "b"], ["b", "a"]]},
            {"field": "GF:4", "elements": [], "covers": []},
            {"field": "Q", "elements": ["a b"], "covers": []},
            {"elements": [], "covers": []},
            {"field": "Q", "elements": ["a"], "covers": {}},
            {"field": "Q", "elements": ["a", "b"], "covers": [[["x"], "b"]]},
            dict(two_chain_doc(), sheaf={"stalks": []}),
            dict(two_chain_doc(), sheaf={"stalks": {"lo": 1, "hi": 1}, "maps": []}),
            dict(two_chain_doc(), covers=[],
                 sheaf={"stalks": {"lo": True, "hi": 1}, "maps": {}}),
            # Fraction would expand the exponents
            dict(two_chain_doc(), sheaf={"stalks": {"lo": 1, "hi": 1},
                                         "maps": {"lo->hi": [["1e999999"]]}}),
            circle_sheaf_doc(["1", "1e5000", "1", "1"]),
        ]
        for i, doc in enumerate(cases):
            path = write_doc(tmp_path, doc, name=f"bad{i}.json")
            assert main(["validate", path]) == 2, doc
            assert "invalid document" in capsys.readouterr().err, doc

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_noncommuting(self, tmp_path, capsys):
        assert main(["validate", write_doc(tmp_path, noncommuting_doc())]) == 3
        err = capsys.readouterr().err
        assert "bot" in err and "top" in err

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1


class TestCohomology:
    def test_circle(self, tmp_path, capsys):
        assert main(["cohomology", write_doc(tmp_path, circle_doc())]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1, 1]
        assert report["sizes"]["elements"] == 4
        assert "generator" in report

    def test_max_degree(self, tmp_path, capsys):
        path = write_doc(tmp_path, circle_doc())
        assert main(["cohomology", path, "--max-degree", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == [1]

    def test_negative_max_degree_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, circle_doc())
        assert main(["cohomology", path, "--max-degree", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_non_integer_max_degree_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, circle_doc())
        assert main(["cohomology", path, "--max-degree", "x"]) == 1
        assert capsys.readouterr() == (
            "", "usage error: argument --max-degree: invalid degree 'x'\n")

    def test_gf_field(self, tmp_path, capsys):
        assert main(["cohomology", write_doc(tmp_path, circle_doc("GF:2"))]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == [1, 1]

    def test_z_field_rejected(self, tmp_path, capsys):
        assert main(["cohomology", write_doc(tmp_path, circle_doc("Z"))]) == 1
        assert "homology" in capsys.readouterr().err

    def test_explicit_sheaf(self, tmp_path, capsys):
        assert main(["cohomology", write_doc(tmp_path, two_chain_doc())]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == [1]

    @pytest.mark.parametrize("command, field, poset", [
        (["cohomology"], "Q", bing_house_poset),
        (["simplify", "--strategy", "acyclic-down"], "GF:7", bing_house_with_apexes),
    ], ids=["house", "house-with-apexes"])
    def test_roos_only_off_face_posets(self, tmp_path, capsys, monkeypatch,
                                       command, field, poset):
        # the house is a simplicial face poset; with its apexes it is not,
        # but simplify computes cohomology only after removing them, so
        # no chain is listed
        built = []
        listed = poset_module.order_complex
        monkeypatch.setattr(poset_module, "order_complex",
                            lambda p: built.append(p) or listed(p))
        monkeypatch.setattr(cli, "_ms", lambda t0: 0)
        path = write_doc(tmp_path, poset_doc(poset(), field))
        assert main([command[0], path, *command[1:]]) == 0
        assert built == []
        generator = {"tool": "posheaf", "version": __version__}
        if command == ["cohomology"]:
            report = {
                "generator": generator,
                "betti": [1],
                "sizes": {"elements": 399},
                "timing_ms": 0,
            }
        else:
            generator["strategy"] = "acyclic-down"
            house = bing_house_poset()
            report = {
                "generator": generator,
                "betti": [1],
                "betti_after": [1],
                "certified": True,
                "trace": [{"removed": a, "rule": "acyclic-downset"} for a in ("apexU", "apexV")],
                "sizes": {"before": 401, "after": 399},
                "timing_ms": 0,
                "document": space_to_data(SheavedSpace(house, constant_sheaf(house, GF(7))),
                                          field, generator=generator),
            }
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


class TestInputTooLarge:
    """An order complex over poset.MAX_CHAINS chains exits 5, untraced.
    Every command builds one only for a beat core: `cohomology`,
    `simplify` and `core` for the reduced space, `homology` for the
    order-theoretic core of the input."""

    @staticmethod
    def assert_refused(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input too large") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command, field", [("homology", "Z")])
    def test_long_chain(self, tmp_path, capsys, command, field):
        # 2^1100 - 1 chains, but the beat core is one point; before
        # homology reduced first, this exited 5
        path = write_doc(tmp_path, chain_doc(1100, field))
        t0 = time.monotonic()
        assert main([command, path]) == 0
        assert time.monotonic() - t0 < 2
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1] and report["reduced_betti"] == []
        assert report["sizes"] == {"elements": 1100}

    @pytest.mark.parametrize("n, field, seconds",
                             [(200, "GF:7", 5), (16, "Q", 3), (1100, "GF:7", 5)],
                             ids=["200-GF:7", "16-Q", "1100-GF:7"])
    def test_cohomology_of_long_chain_is_computed_on_its_core(
            self, tmp_path, capsys, n, field, seconds):
        # 2^n - 1 chains, but the core is one point; the 16-chain over Q
        # took about 30 s when its whole Roos complex was eliminated, and
        # the 1,100-chain about 15 s when each removal rebuilt the closures
        # of every element comparable to it
        path = write_doc(tmp_path, chain_doc(n, field))
        t0 = time.monotonic()
        assert main(["cohomology", path]) == 0
        assert time.monotonic() - t0 < seconds
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1]
        assert report["sizes"] == {"elements": n}

    @pytest.mark.parametrize("command, field", [
        (["cohomology"], "GF:7"),
        (["homology"], "Z"),
        (["core"], "GF:7"),
        (["simplify", "--strategy", "acyclic-down"], "GF:7"),
    ], ids=["cohomology", "homology", "core", "simplify-acyclic-down"])
    def test_beat_free_antichain_sum(self, tmp_path, capsys, command, field):
        # 22 elements and 3^11 - 1 = 177,146 chains; nothing is removed
        path = write_doc(tmp_path, antichain_sum_doc(11, field))
        assert main([command[0], path, *command[1:]]) == 5
        self.assert_refused(capsys)

    def test_sphere_face_poset_lists_no_chain(self, tmp_path, capsys):
        # the boundary of the 7-simplex: 254 faces, no beat, and more
        # chains than the budget; integral homology takes its faces
        p = boundary_of_simplex(8)
        assert len(p) == 254 and poset_core(p) is p and chain_count(p) > MAX_CHAINS
        path = write_doc(tmp_path, poset_doc(p, "Z"))
        t0 = time.monotonic()
        assert main(["homology", path]) == 0
        assert time.monotonic() - t0 < 2
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1, 0, 0, 0, 0, 0, 1] and report["torsion"] == []
        assert report["reduced_betti"] == [0, 0, 0, 0, 0, 0, 1]
        assert report["reduced_torsion"] == []
        # the Z certification of core (reduced homology) builds on it too
        assert main(["core", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [0, 0, 0, 0, 0, 0, 1] and report["torsion"] == []
        assert report["sizes"] == {"before": 254, "after": 254}

    def test_suspended_sphere_is_no_face_poset(self, tmp_path, capsys):
        # two apexes over every facet: beat-free, no face poset, over budget
        p = boundary_of_simplex(8)
        tops = [t for t in p.elements if not p.upper_covers(t)]
        covers = p.covers | {(t, a) for t in tops for a in ("apexU", "apexV")}
        q = build_poset(p.elements + ("apexU", "apexV"), covers)
        assert poset_core(q) is q and chain_count(q) > MAX_CHAINS
        assert main(["homology", write_doc(tmp_path, poset_doc(q, "Z"))]) == 5
        self.assert_refused(capsys)

    def test_core_collapses_long_chain(self, tmp_path, capsys):
        # 2^100 - 1 chains, but core computes the cohomology of one point
        path = write_doc(tmp_path, chain_doc(100))
        t0 = time.monotonic()
        assert main(["core", path]) == 0
        assert time.monotonic() - t0 < 2
        report = json.loads(capsys.readouterr().out)
        assert report["sizes"] == {"before": 100, "after": 1}
        assert report["betti"] == report["betti_after"] == [1]


@pytest.mark.parametrize("command", [
    ["validate"], ["cohomology"], ["core"], ["simplify", "--strategy", "constant-updown"],
], ids=["validate", "cohomology", "core", "simplify-constant-updown"])
def test_huge_stalks_build_no_identity(tmp_path, capsys, monkeypatch, command):
    """Two incomparable elements with 10^9-dimensional stalks: nothing is
    to be built of a stalk's size, so no identity matrix may be."""
    identity = Matrix.identity.__func__

    def bounded(cls, ring, n):
        assert n <= 10_000, f"an identity matrix of size {n}"
        return identity(cls, ring, n)

    monkeypatch.setattr(Matrix, "identity", classmethod(bounded))
    doc = {"field": "GF:7", "elements": ["a", "b"], "covers": [],
           "sheaf": {"stalks": {"a": 10**9, "b": 10**9}, "maps": {}}}
    assert main([command[0], write_doc(tmp_path, doc), *command[1:]]) == 0
    out = capsys.readouterr().out
    if command != ["validate"]:
        assert json.loads(out)["betti"] == [2 * 10**9]


class TestHomology:
    def test_circle_over_z(self, tmp_path, capsys):
        assert main(["homology", write_doc(tmp_path, circle_doc("Z"))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1, 1]
        assert report["torsion"] == []
        assert report["reduced_betti"] == [0, 1]

    def test_sheaf_block_warns(self, tmp_path, capsys):
        assert main(["homology", write_doc(tmp_path, two_chain_doc())]) == 0
        assert "ignored" in capsys.readouterr().err

    def test_ignored_sheaf_block_is_not_built(self, tmp_path, capsys):
        # the map does not fit the stalks, but only the poset is read
        doc = {"field": "Z", "elements": ["a", "b"], "covers": [["a", "b"]],
               "sheaf": {"stalks": {"a": 1, "b": 2}, "maps": {"a->b": [["1"]]}}}
        assert main(["homology", write_doc(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: sheaf block ignored for integral homology\n"
        assert json.loads(captured.out)["betti"] == [1]

    def test_report_matches_the_full_order_complex(self, tmp_path, capsys, monkeypatch):
        """The report is built on the beat core; the reference lists every
        chain of the input, on seeded random posets that have beats and on
        the projective plane with a beat above one face (torsion Z/2)."""
        monkeypatch.setattr(cli, "_ms", lambda t0: 0)
        rng = random.Random(241)
        rp2 = face_poset(RP2)
        posets = [build_poset(rp2.elements + ("apex",), rp2.covers | {("1|2|6", "apex")})]
        posets += [random_poset(rng, rng.randint(2, 11)) for _ in range(120)]
        checked = 0
        for p in posets:
            if poset_core(p) is p:
                continue
            unred = integral_homology(order_complex(p))
            red = reduce_homology(unred)
            report = {
                "generator": {"tool": "posheaf", "version": __version__},
                "betti": list(unred.betti_trimmed()),
                "torsion": [list(t) for t in unred.torsion_trimmed()],
                "reduced_betti": list(red.betti_trimmed()),
                "reduced_torsion": [list(t) for t in red.torsion_trimmed()],
                "sizes": {"elements": len(p)},
                "timing_ms": 0,
            }
            assert main(["homology", write_doc(tmp_path, poset_doc(p, "Z"))]) == 0
            assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("poset, groups", [
        (four_point_circle, ([1, 1], [], [0, 1], [])),
        (circle_with_apex, ([1], [], [], [])),
        (bing_house_poset, ([1], [], [], [])),
        (lambda: face_poset(RP2), ([1], [[], [2]], [], [[], [2]])),
        (lambda: build_poset([], []), ([], [], [], [])),
    ], ids=["circle", "circle-with-apex", "house", "projective-plane", "empty"])
    def test_one_smith_form_per_differential(self, tmp_path, capsys, monkeypatch,
                                             poset, groups):
        calls = []
        snf = cohomology_module.smith_normal_form
        monkeypatch.setattr(cohomology_module, "smith_normal_form",
                            lambda m: calls.append(m) or snf(m))
        monkeypatch.setattr(cli, "_ms", lambda t0: 0)
        p = poset()
        doc = {"field": "Z", "elements": list(p.elements), "covers": sorted(p.covers)}
        assert main(["homology", write_doc(tmp_path, doc)]) == 0
        betti, torsion, reduced_betti, reduced_torsion = groups
        report = {
            "generator": {"tool": "posheaf", "version": __version__},
            "betti": betti,
            "torsion": torsion,
            "reduced_betti": reduced_betti,
            "reduced_torsion": reduced_torsion,
            "sizes": {"elements": len(p)},
            "timing_ms": 0,
        }
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"
        assert len(calls) == max(len(order_complex(poset_core(p)).simplices) - 1, 0)


def z_diamond_doc(top_right):
    """The Z diamond bot < l, r < top, every stalk 1, with the map
    literal `top_right` on r -> top and "1" on the other covers."""
    return with_block(dict.fromkeys(["bot", "l", "r", "top"], 1),
                      {"bot->l": [["1"]], "bot->r": [["1"]], "l->top": [["1"]],
                       "r->top": [[top_right]]},
                      field="Z", elements=["bot", "l", "r", "top"],
                      covers=[("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


class TestZDocuments:
    """A Z document is its poset: every command gives it the constant
    rank-1 sheaf, warns once that its sheaf block is ignored, and never
    builds that block; `cohomology` refuses it."""

    def test_noncommuting_block_is_ignored(self, tmp_path, capsys):
        path = write_doc(tmp_path, z_diamond_doc("-1"))
        # homology reports unreduced groups, `core` and `simplify` the
        # reduced ones of their Z certification: the diamond is a point
        for command, betti in ((["validate"], None), (["homology"], [1]), (["core"], []),
                               (["simplify", "--strategy", "constant-updown"], [])):
            assert main([command[0], path, *command[1:]]) == 0, command
            captured = capsys.readouterr()
            assert captured.err == IGNORED_BLOCK
            if betti is not None:
                assert json.loads(captured.out)["betti"] == betti

    def test_cohomology_refuses_before_building(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "document_space", lambda doc: pytest.fail("built a Z document"))
        for doc in (z_diamond_doc("-1"), circle_doc("Z")):
            assert main(["cohomology", write_doc(tmp_path, doc)]) == 1
            assert capsys.readouterr() == (
                "", "field 'Z' has no sheaf cohomology here; use the homology command\n")

    def test_core_writes_the_constant_sheaf(self, tmp_path, capsys):
        # the "1/2" maps are ignored, not written back into a Z document
        doc = circle_doc("Z")
        blocked = dict(doc, sheaf={"stalks": dict.fromkeys(doc["elements"], 1),
                                   "maps": {f"{u}->{v}": [["1/2"]] for u, v in doc["covers"]}})
        written = []
        for d, err in ((doc, ""), (blocked, IGNORED_BLOCK)):
            out = tmp_path / "out.json"
            assert main(["core", write_doc(tmp_path, d), "--out", str(out)]) == 0
            assert capsys.readouterr().err == err
            written.append(out.read_text())
        assert written[0] == written[1]
        data = json.loads(written[1])
        assert data["field"] == "Z"
        assert all(rows == [["1"]] for rows in data["sheaf"]["maps"].values())


class TestSimplifyAndCore:
    def test_core_collapses_chain(self, tmp_path, capsys):
        assert main(["core", write_doc(tmp_path, two_chain_doc())]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True
        assert report["sizes"] == {"before": 2, "after": 1}
        assert len(report["trace"]) == 1
        assert report["betti"] == report["betti_after"] == [1]

    def test_circle_core_is_identity(self, tmp_path, capsys):
        assert main(["core", write_doc(tmp_path, circle_doc())]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"] == []
        assert report["sizes"] == {"before": 4, "after": 4}

    def test_out_file_roundtrips(self, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        path = write_doc(tmp_path, two_chain_doc())
        assert main(["simplify", path, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "document" not in report
        with open(out) as fh:
            produced = json.load(fh)
        doc = parse_space(produced)
        assert len(doc.elements) == 1
        # the emitted document is itself a valid CLI input
        assert main(["validate", out]) == 0

    def test_inline_document_when_no_out(self, tmp_path, capsys):
        assert main(["simplify", write_doc(tmp_path, two_chain_doc())]) == 0
        report = json.loads(capsys.readouterr().out)
        parse_space(report["document"])

    def test_strategy_choices_enforced(self, tmp_path):
        path = write_doc(tmp_path, circle_doc())
        assert main(["simplify", path, "--strategy", "bogus"]) == 1

    def test_z_field_every_strategy(self, tmp_path, capsys):
        """Every rule keeps the integral homology of the order complex, so
        a Z document takes `core` and every strategy, and reports the
        groups of the input."""
        rng = random.Random(167)
        posets = [four_point_circle(), circle_with_apex(), face_poset(RP2)]
        posets += [random_poset(rng, rng.randint(4, 8)) for _ in range(5)]
        commands = [["core"]] + [["simplify", "--strategy", s] for s in STRATEGIES]
        for i, p in enumerate(posets):
            h = reduce_homology(integral_homology(order_complex(p)))
            path = write_doc(tmp_path, poset_doc(p, "Z"), name=f"z{i}.json")
            for command in commands:
                assert main([command[0], path, *command[1:]]) == 0, command
                report = json.loads(capsys.readouterr().out)
                assert report["certified"] is True
                assert report["betti"] == report["betti_after"] == list(h.betti_trimmed())
                torsion = [list(t) for t in h.torsion_trimmed()]
                assert report["torsion"] == report["torsion_after"] == torsion

    @pytest.mark.parametrize("command", [["core"], ["simplify", "--strategy", "acyclic-down"]],
                             ids=["core", "simplify"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, command, target):
        out = tmp_path / "nope" / "x.json" if target == "missing-directory" else tmp_path
        path = write_doc(tmp_path, two_chain_doc())
        assert main([command[0], path, *command[1:], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {out}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_seed_reproducible(self, tmp_path, capsys):
        rng = random.Random(79)
        p = random_poset(rng, 8)
        sp = SheavedSpace(p, constant_sheaf(p, QQ))
        data = space_to_data(sp, "Q")
        path = write_doc(tmp_path, data)
        outs = []
        for _ in range(2):
            assert main(
                ["simplify", path, "--strategy", "acyclic-down", "--seed", "5"]
            ) == 0
            outs.append(json.loads(capsys.readouterr().out)["trace"])
        assert outs[0] == outs[1]

    def test_commutativity_sweep_runs_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        sweep = sheaf_module._first_violation
        monkeypatch.setattr(
            sheaf_module, "_first_violation", lambda f: calls.append(f) or sweep(f)
        )
        rng = random.Random(97)
        p = random_poset(rng, 9)
        path = write_doc(tmp_path, space_to_data(random_space(rng, p, QQ), "Q"))
        assert main(["simplify", path, "--strategy", "acyclic-down"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True and report["trace"]
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [
        ["core"], ["simplify"], ["simplify", "--strategy", "acyclic-down"],
    ])
    def test_oversized_result_is_refused(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, oversized_result_doc())
        assert main(["validate", path]) == main(["cohomology", path]) == 0
        capsys.readouterr()
        out = str(tmp_path / "out.json")
        assert main([command[0], path, *command[1:], "--out", out]) == 2
        captured = capsys.readouterr()
        assert "invalid document: map p->y" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("steps", [(TraceStep("a", "downbeat"),), ()],
                             ids=["refused-step", "other-result"])
    def test_refused_replay_exits_4(self, tmp_path, capsys, monkeypatch, steps):
        # the circle has no beat, and "a" is minimal, so not a downbeat
        def greedy(sp, rules, rng):
            out = restrict(sp, set(sp.poset.elements) - {"a"})
            return out, SimplificationTrace(steps, sp, out)

        monkeypatch.setattr(simplify_module, "_greedy", greedy)
        out = tmp_path / "out.json"
        assert main(["core", write_doc(tmp_path, circle_doc()), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("certification failed: replay")
        assert not out.exists()

    def test_random_spaces_certify(self, tmp_path, capsys, monkeypatch):
        """The reported groups are the unreduced input's, computed here;
        a run computes only those of the reduced space."""
        calls = []
        certify = cli._cohomology_for_certification
        monkeypatch.setattr(cli, "_cohomology_for_certification",
                            lambda doc, sp: calls.append(sp) or certify(doc, sp))
        rng = random.Random(83)
        fields = [(QQ, "Q", ["core"]),
                  (GF(7), "GF:7", ["simplify", "--strategy", "acyclic-down"]),
                  (None, "Z", ["simplify", "--strategy", "constant-updown"])]
        runs = [fields[i % 3] + (random_poset(rng, rng.randint(1, 7)),) for i in range(30)]
        runs.append(fields[2] + (face_poset(RP2),))  # H_1 has torsion Z/2
        for i, (ring, tag, command, p) in enumerate(runs):
            if ring is None:
                data, h = poset_doc(p, tag), reduce_homology(integral_homology(order_complex(p)))
            else:
                sp = SheavedSpace(p, random_sheaf(rng, p, ring))
                data, h = space_to_data(sp, tag), sheaf_cohomology(sp)
            path = write_doc(tmp_path, data, name=f"r{i}.json")
            assert main([command[0], path, *command[1:]]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["certified"] is True
            assert report["betti"] == report["betti_after"] == list(h.betti_trimmed())
            if ring is None:
                torsion = [list(t) for t in h.torsion_trimmed()]
                assert report["torsion"] == report["torsion_after"] == torsion
            assert [len(c.poset) for c in calls] == [report["sizes"]["after"]]
            calls.clear()


class TestRoundTrip:
    def test_scalars_survive_serialization(self, tmp_path, capsys):
        rng = random.Random(89)
        for i in range(10):
            sp = random_space(rng, random_poset(rng, rng.randint(1, 6)), QQ)
            data = space_to_data(sp, "Q")
            path = write_doc(tmp_path, data, name=f"s{i}.json")
            assert main(["cohomology", path]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["betti"] == list(sheaf_cohomology(sp).betti_trimmed())

    @pytest.mark.parametrize("make, non_integral", [
        (lambda: SheavedSpace(bing_house_poset(), constant_sheaf(bing_house_poset(), QQ)), False),
        (lambda: rescaled(random.Random(7), random_space(random.Random(7),
                                                          random_poset(random.Random(7), 9), QQ)),
         True),
    ], ids=["house", "gauged-random"])
    def test_maps_survive_a_round_trip(self, make, non_integral):
        data = space_to_data(make(), "Q")
        scalars = [x for rows in data["sheaf"]["maps"].values() for row in rows for x in row]
        assert any("/" in x for x in scalars) == non_integral
        again = space_to_data(document_space(parse_space(data)), "Q")
        assert again["sheaf"]["maps"] == data["sheaf"]["maps"]
        assert again == data

    def test_scalars_are_written_canonically(self):
        data = {"field": "Q", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]],
                "sheaf": {"stalks": {"a": 1, "b": 1, "c": 1},
                          "maps": {"a->b": [["+6/4"]], "b->c": [["-007"]]}}}
        sp = document_space(parse_space(data))
        entries = {c: m[0, 0] for c, m in sp.sheaf.cover_maps.items()}
        assert entries == {("a", "b"): Fraction(3, 2), ("b", "c"): -7}
        assert type(entries[("b", "c")]) is int
        assert space_to_data(sp, "Q")["sheaf"]["maps"] == {"a->b": [["3/2"]], "b->c": [["-7"]]}


SCALARS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1e5000", "1e999999", "1/0", "0.5", "-1/2", " 1", "1_0", "", 2, None, []]),
)
NAMES = st.sampled_from(["a", "b", "c", "", "a b", "a->b", 1, None])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
DOCUMENTS = st.one_of(
    JSON,
    st.lists(SCALARS, min_size=4, max_size=4).map(circle_sheaf_doc),
    st.fixed_dictionaries(
        {
            "field": st.sampled_from(["Q", "GF:7", "Z", "GF:4", "R", 7, None]),
            "elements": st.lists(NAMES, max_size=4),
            "covers": st.lists(st.lists(NAMES, max_size=3) | JSON, max_size=4),
        },
        optional={"sheaf": JSON | st.fixed_dictionaries({
            "stalks": st.dictionaries(NAMES.filter(lambda n: isinstance(n, str)),
                                      st.integers(-1, 2) | st.sampled_from([True, "1"])),
            "maps": st.dictionaries(st.sampled_from(["a->b", "b->c", "a->c", "a", "a->b->c"]),
                                    st.lists(st.lists(SCALARS, max_size=2), max_size=2)),
        })},
    ),
)
COMMANDS = [["validate"], ["cohomology"], ["homology"], ["core"]] + [
    ["simplify", "--strategy", s] for s in ("beats", "acyclic-down", "constant-updown")
]


@given(DOCUMENTS)
@settings(max_examples=150, deadline=None)
def test_hostile_documents_exit_with_documented_codes(tmp_path_factory, data):
    path = write_doc(tmp_path_factory.getbasetemp(), data, name="fuzz.json")
    for command in COMMANDS:
        assert main([command[0], path, *command[1:]]) in {0, 1, 2, 3, 4, 5}, command


UNDECODABLE = {
    "utf-16": b"\xff\xfe" + json.dumps(circle_doc()).encode("utf-16-le"),
    "long-stalk-dimension": b'{"field": "Q", "elements": ["a"], "covers": [], '
                            b'"sheaf": {"stalks": {"a": ' + b"1" * 5000 + b'}, "maps": {}}}',
    "long-generator": b'{"generator": ' + b"7" * 5000
                      + b', "field": "Q", "elements": ["a"], "covers": []}',
}


@pytest.mark.parametrize("command", ["validate", "cohomology", "homology", "simplify", "core"])
@pytest.mark.parametrize("raw", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_undecodable_documents_exit_2(tmp_path, capsys, command, raw):
    # not UTF-8, or a JSON integer past Python's 4,300-digit limit
    path = tmp_path / "space.json"
    path.write_bytes(raw)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid document") and "Traceback" not in captured.err


ONES = {"a": 1, "b": 1}
INVALID = {
    "name-ending-in-newline": {"field": "Q", "elements": ["a\n"], "covers": []},
    **{f"field-{tag}": {"field": tag, "elements": ["a"], "covers": []}
       for tag in ("GF:1_1", "GF: 7", "GF:+7", "GF:\u0667")},
    "field-GF-past-int-digits": {"field": "GF:" + "7" * 5000, "elements": ["a"], "covers": []},
    "unknown-key": {"field": "Q", "elements": ["a"], "covers": [], "extra": 1},
    "elements-not-a-list": {"field": "Q", "elements": "a", "covers": []},
    "sheaf-not-an-object": dict(circle_doc(), sheaf=[]),
    "stalk-for-unknown-element": with_block(dict(ONES, z=1), {"a->b": [["1"]]}),
    "missing-stalk": with_block({"a": 1}, {"a->b": [["1"]]}),
    "bad-map-key": with_block(ONES, {"a->b": [["1"]], "a->b->c": [["1"]]}),
    "map-key-not-a-cover": with_block(ONES, {"a->b": [["1"]], "b->a": [["1"]]}),
    "rows-not-a-list": with_block(ONES, {"a->b": "1"}),
    "missing-map": with_block(ONES, {}),
    "fraction-in-GF7": with_block(ONES, {"a->b": [["1/2"]]}, field="GF:7"),
}
# the only case in a map's scalars, which `homology` never parses
UNREAD_BY_HOMOLOGY = INVALID["fraction-in-GF7"]


@pytest.mark.parametrize("command", ["validate", "cohomology", "homology", "simplify", "core"])
@pytest.mark.parametrize("doc", INVALID.values(), ids=INVALID.keys())
def test_invalid_names_and_field_tags_exit_2(tmp_path, capsys, command, doc):
    # `$` also matches before a trailing newline, and int() takes a sign,
    # spaces, "_" and non-ASCII digits ("GF:1_1" was read as GF(11))
    code = main([command, write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    if command == "homology" and doc is UNREAD_BY_HOMOLOGY:
        assert code == 0 and captured.err == IGNORED_BLOCK
        assert json.loads(captured.out)["betti"] == [1]
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid document: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def written_out_doc(p, field):
    """The constant rank-1 sheaf on p, with every stalk and map written out."""
    return dict(poset_doc(p, field), sheaf={
        "stalks": dict.fromkeys(p.elements, 1),
        "maps": {f"{u}->{v}": [["1"]] for u, v in sorted(p.covers)},
    })


BYTE_STABLE_DOCS = {
    "house-Q": lambda: written_out_doc(bing_house_poset(), "Q"),
    "apexes-GF7": lambda: written_out_doc(bing_house_with_apexes(), "GF:7"),
    # cores that remove elements, and Z certifications
    "circle-apex-GF7": lambda: written_out_doc(circle_with_apex(), "GF:7"),
    "circle-apex-Z": lambda: poset_doc(circle_with_apex(), "Z"),
    "p5-Z": lambda: poset_doc(p5_gadget(), "Z"),
    "apexes-Z": lambda: poset_doc(bing_house_with_apexes(), "Z"),
}
# sha256 of stdout (timing_ms zeroed) and of the --out file; a change to
# either is a change of the output format.  "simplify" runs acyclic-down,
# "simplify:<strategy>" another strategy.  The house-Q and apexes-GF7
# digests were taken with commit 4c7c5b1, the others with commit 4b7311a.
BYTE_STABLE = {
    ("house-Q", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("house-Q", "cohomology"): (
        "a17d875b2320c5b19a8da1e4119de0762676105a01a909ffcf854012ff2f2b85",
        None,
    ),
    ("house-Q", "homology"): (
        "a1549aea9a8107816d980680aca3847413db94da01b490d22def133b7bcb62ea",
        None,
    ),
    ("house-Q", "core"): (
        "e9cce03ee1ab69196837e2fd5858aa7a0c76ffd5d2138c19af35bf086a57b885",
        "72e43e2225dceebe0ad086d081ebe3525086a4065b6423945ba40515aebc4f9b",
    ),
    ("house-Q", "simplify"): (
        "ec6042f46a15c99a9276391ee0f3157ac390a757827bbd269c6e4089e0b748a7",
        "8921f91b8a5e820ec437e6f31b96c135688dcebaa1b04b0997627c1da2d74843",
    ),
    ("apexes-GF7", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("apexes-GF7", "cohomology"): (
        "3a2014c96063a970e91456d1c329e58c348d3839b67e3a16c50e712ab81b32ce",
        None,
    ),
    ("apexes-GF7", "homology"): (
        "28decce5b9cb30b8e838e8168d900c3b3259902f7a626a69056971e7d616d3a0",
        None,
    ),
    ("apexes-GF7", "core"): (
        "0c4935eafc87ed0180de8e6f1438ef9ed97fbaac3d0e166a9e237353d90b3a54",
        "d84f2098642082b3ef9852071170456415edc1908de540d5f523dc97574907a3",
    ),
    ("apexes-GF7", "simplify"): (
        "4e15f67774fb4138f606cc2da47c19135019f9f83811969e55c7c69edf16a74c",
        "68a4b560dee24614c5c11f43fb6e4656edb9878b5f1ccd8f41b52c653f115ba8",
    ),
    ("house-Q", "simplify:constant-updown"): (
        "3a35e1232d17840b596354f8733a05b35b5fe824f9d7bd103c09d1015bc42cfd",
        "3f08db2e1d200aa476d08340fa0919876aa45b0dc1b11bbbbb510394a9754771",
    ),
    ("apexes-GF7", "simplify:constant-updown"): (
        "f98d5d9b11087f8890ea3b549691305d1ad4a527d4c037f65daf7673d2202893",
        "22b9d4261519bea03e80dc1aa1d718bb163d196c345b68055020405cab696017",
    ),
    ("circle-apex-GF7", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("circle-apex-GF7", "cohomology"): (
        "64c797fa020e4c4229c2848ec48c45fc41f9a8b4341f576ebdc99d048192fd7f",
        None,
    ),
    ("circle-apex-GF7", "homology"): (
        "1a53adbdcc9d65e0c9c7855d4fd0ef84a470a0be8165766fdfa4d0a139b283e7",
        None,
    ),
    ("circle-apex-GF7", "core"): (
        "b0198bfd8dc0bedea5af068d4863104005f7cdd710d855f5d2d14902606f75f4",
        "f4230c9106a4d30482502e597e9e5539d975b486f76af5a949454c507b646dc2",
    ),
    ("circle-apex-GF7", "simplify"): (
        "5f08e96eb3951476c4fb5b841c08d31c40084d7909a21a693e92f70e3b43b042",
        "5096f9d35982ff2b20f9dd3f483ef9a18000be4e671c83170ea88ddfcc217af4",
    ),
    ("circle-apex-GF7", "simplify:constant-updown"): (
        "d02f34cec0abf9bd2d878bb8bd02031a8b2c3c9fdbe4106f4ec15f230b5b43e2",
        "b465120cbc07d9568a71ceace71dd7c7eccf4e81bd698dc551e3d2c33a3b7f2e",
    ),
    ("circle-apex-Z", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("circle-apex-Z", "homology"): (
        "1a53adbdcc9d65e0c9c7855d4fd0ef84a470a0be8165766fdfa4d0a139b283e7",
        None,
    ),
    ("circle-apex-Z", "core"): (
        "0daca971c0754c13afcb2650df3fd33a334c6010ea45a899109f98ecb54af1c9",
        "4187b00f4b944e5b35838288495e7e72c977d8e4b77017286a90d4863a38275a",
    ),
    ("circle-apex-Z", "simplify"): (
        "8b0671e6d31243650d9b5f1d3f4e39f12ae092dcc2fa3a127909d00ad8818f4a",
        "738e98e6c32dd83ce29cc8f686b2e4a14d5c979e4d69b3706ebd6ff7ad4e7c41",
    ),
    ("circle-apex-Z", "simplify:constant-updown"): (
        "d44294f46291b60336986b6277eb2cc8e74f92d5bfab146bfeea92f2918e62b1",
        "534bdb04eb5df6546989afbf4cc608129c1593187ee56caae29747edea503471",
    ),
    ("p5-Z", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("p5-Z", "homology"): (
        "60280c9f54269511c87f75d682240a3870c81b1b1a18e7c21737e55c11e58a25",
        None,
    ),
    ("p5-Z", "core"): (
        "56d6f27492e48481c7f9d18e9043f1f1469546840f25789e5363e2b2b4fb2338",
        "cd305b4be70db7f529933ec6256853ef867a634544da3e202f5ed02998a788ee",
    ),
    ("p5-Z", "simplify"): (
        "0c1adcc60dc1aa49a80e48c52ce7935861e27ce145dfd660b93c66a10e451fe2",
        "60a8bda789272ab6b508b2da45a830b84543846bd4ac3aeb1f1273fa828b6567",
    ),
    ("p5-Z", "simplify:constant-updown"): (
        "6efd271ad2d5a91958be8d96b3e80c4165ab1fb2b426701f935b3053d33def8d",
        "05845e5c66f0cbb72603eda1b1025398c3e08d2229cbd972e01c988977c53fb6",
    ),
    ("apexes-Z", "validate"): (
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        None,
    ),
    ("apexes-Z", "homology"): (
        "28decce5b9cb30b8e838e8168d900c3b3259902f7a626a69056971e7d616d3a0",
        None,
    ),
    ("apexes-Z", "core"): (
        "9936511bc9072491e80ca00cffa83b7ff4aaadaa193aba053a39ae04bdf02ed4",
        "094640a75d094af6335ac448ebd1a49a9777a158c5dca9404e5f249e765d1ea6",
    ),
    ("apexes-Z", "simplify"): (
        "979ec46e4496b7a7a4c9e7789e4a2807e838428fd2285877d6c74d060f97f0eb",
        "f061af42493e63f15d5e407e1b4ab68924d46bcf8c12f5eb4f01b46d272c8b99",
    ),
    ("apexes-Z", "simplify:constant-updown"): (
        "1f4f416e6baa89eb1ce34b5f6ecdb44890997458b140a8df8ca7a0243fd021a5",
        "0f5da1c5808f82d96d61e9c31957577e4656ea9184ec7fc611098c1a0b9aa622",
    ),
}


def pinned_digests(tmp_path, capsys, name, command):
    """(stdout digest, --out digest or None) of one CLI run on a document."""
    command, _, strategy = command.partition(":")
    argv = [command, write_doc(tmp_path, BYTE_STABLE_DOCS[name]())]
    if command == "simplify":
        argv += ["--strategy", strategy or "acyclic-down"]
    out_path = tmp_path / "out.json"
    if command in ("core", "simplify"):
        argv += ["--out", str(out_path)]
    assert main(argv) == 0
    stdout = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', capsys.readouterr().out)
    out = hashlib.sha256(out_path.read_bytes()).hexdigest() if out_path.exists() else None
    return hashlib.sha256(stdout.encode()).hexdigest(), out


@pytest.mark.parametrize("name, command", BYTE_STABLE, ids=[f"{n}-{c}" for n, c in BYTE_STABLE])
def test_outputs_are_byte_stable(tmp_path, capsys, name, command):
    assert pinned_digests(tmp_path, capsys, name, command) == BYTE_STABLE[(name, command)]


def test_acyclic_down_on_the_house_lists_no_chain(tmp_path, capsys, monkeypatch):
    """The one acyclicity check on the house with apexes, and the closing
    certification, build on simplicial face posets: with every order
    complex refused, the trace, report and result are the same."""
    monkeypatch.setattr(cli, "_ms", lambda t0: 0)
    path = write_doc(tmp_path, BYTE_STABLE_DOCS["apexes-GF7"]())
    argv = ["simplify", path, "--strategy", "acyclic-down", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    expected = capsys.readouterr().out, (tmp_path / "out.json").read_bytes()

    def refuse(p):
        raise AssertionError("an order complex was built")

    monkeypatch.setattr(poset_module, "order_complex", refuse)
    monkeypatch.setattr(cohomology_module, "order_complex", refuse)
    assert main(argv) == 0
    assert (capsys.readouterr().out, (tmp_path / "out.json").read_bytes()) == expected
    trace = json.loads(expected[0])["trace"]
    assert trace == [{"removed": "apexU", "rule": "acyclic-downset"},
                     {"removed": "apexV", "rule": "acyclic-downset"}]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


@given(data=JSON_VALUES, shared=JSON_VALUES, repeats=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(data, shared, repeats):
    """`dump_json` is `json.dumps(data, indent=2) + "\\n"`; `shared`
    recurs as one object, at one depth and at another, as the map rows
    of `space_to_data` do."""
    for doc in (data, {"rows": [shared] * repeats, "deeper": {"rows": [shared]}, "data": data},
                [[], {}, "", "\u00e9\u2603\U0001F600", "\"\\\n\t\x00", True, False, None]):
        assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def repeated_literal_doc(literal, top_stalk=1):
    """a < b < c, both maps the same literal; c's stalk is `top_stalk`."""
    return {"field": "Q", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]],
            "sheaf": {"stalks": {"a": 1, "b": 1, "c": top_stalk},
                      "maps": {"a->b": literal, "b->c": literal}}}


REPEATED_LITERALS = {
    "unhashable": (repeated_literal_doc([[["1"]]]),
                   "invalid document: scalar entries must be strings, got ['1']\n"),
    "other-shape": (repeated_literal_doc([["1"]], top_stalk=2),
                    "invalid document: map b->c does not match stalk dimensions 2x1\n"),
    "division-by-zero": (repeated_literal_doc([["1/0"]]),
                         "invalid document: bad scalar '1/0'\n"),
}


@pytest.mark.parametrize("command", ["validate", "cohomology", "simplify", "core"])
@pytest.mark.parametrize("doc, err", REPEATED_LITERALS.values(), ids=REPEATED_LITERALS.keys())
def test_repeated_map_literals_keep_their_errors(tmp_path, capsys, command, doc, err):
    # a literal is parsed once per shape, and kept only once it parsed
    assert main([command, write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", err)


SCALAR_TEXT = (st.text(alphabet="0123456789+-/ ._e\u0663", max_size=8)
               | st.from_regex(r"[+-]?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True))


@given(text=SCALAR_TEXT, ring=st.sampled_from([QQ, GF(7)]))
@settings(max_examples=300, deadline=None)
def test_documents_read_a_scalar_string_exactly_as_coerce_does(text, ring):
    """A document takes a scalar string iff `coerce` does, with the same
    value: both read the one grammar of `exact_linalg`.  Reference: the
    grammar written out here, a nonzero denominator, and an integral
    value for GF(7)."""
    num, _, den = text.partition("/")
    grammatical = re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text) and int(den or 1) != 0
    if grammatical and (ring == QQ or int(num) % int(den or 1) == 0):
        expected = ring.coerce(text)
        assert expected == ring.coerce(Fraction(int(num), int(den or 1)))
        got = _parse_scalar(text, ring)
        assert got == expected and type(got) is type(expected)
        return
    with pytest.raises(LinalgError) as refused:
        ring.coerce(text)
    with pytest.raises(DocumentError) as info:
        _parse_scalar(text, ring)
    assert str(info.value) == str(refused.value)


def test_repeated_map_literals_share_one_matrix():
    doc = json.loads(json.dumps(written_out_doc(bing_house_with_apexes(), "GF:7")))
    doc["sheaf"]["stalks"]["apexU"] = 2
    for key in doc["sheaf"]["maps"]:
        if key.endswith("->apexU"):
            doc["sheaf"]["maps"][key] = [["1"], ["0"]]
    maps = document_space(parse_space(doc)).sheaf.cover_maps
    to_apex = {id(m) for (_, v), m in maps.items() if v == "apexU"}
    others = {id(m) for (_, v), m in maps.items() if v != "apexU"}
    assert len(to_apex) == len(others) == 1 and to_apex != others
    # shared maps are written once and read back the same
    data = space_to_data(document_space(parse_space(doc)), "GF:7")
    assert document_space(parse_space(data)).sheaf.cover_maps == maps


def test_one_other_map_in_an_identity_diagram_is_refused(tmp_path, capsys):
    # a vertex -> edge map of the house doubled: the triangles over that
    # edge see two different composites from the vertex
    doc = written_out_doc(bing_house_poset(), "Q")
    u, v = next((u, v) for u, v in sorted(bing_house_poset().covers))
    doc["sheaf"]["maps"][f"{u}->{v}"] = [["2"]]
    assert main(["validate", write_doc(tmp_path, doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"non-commuting diagram between {u!r}")

"""Checks on the benchmark's tooling that need only the library.

`perfbench/spans.py` skips a traced name that no longer exists, so a
rename would silently drop that layer's metrics from the traced run.
Its `simplify.find_beats` and `sheaf.restrict` metrics count on the
calls the simplification loop makes through those names.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import posheaf.cli  # noqa: F401  (loads every module the tracer wraps)
from posheaf import simplify
from posheaf.exact_linalg import QQ
from posheaf.fixtures import circle_with_apex, p5_gadget
from posheaf.sheaf import SheavedSpace, constant_sheaf

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    missing = []
    for span, modname, attr, *_ in load_spans().TARGETS:
        owner = sys.modules.get(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr} ({span})")
    assert not missing, missing


@pytest.mark.parametrize("strategy", simplify.STRATEGIES)
def test_find_beats_once_per_run_and_restrict_once_per_removal(strategy, monkeypatch):
    calls = {"find_beats": 0, "restrict": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(simplify, name, counted(name, getattr(simplify, name)))
    for p in (circle_with_apex(), p5_gadget()):
        sp = SheavedSpace(p, constant_sheaf(p, QQ))
        calls.update(find_beats=0, restrict=0)
        _, trace = simplify.simplify_pipeline(sp, strategy)
        assert trace.steps
        # one greedy run; its removals, then the replay's
        assert calls == {"find_beats": 1, "restrict": 2 * len(trace.steps)}
        calls.update(find_beats=0, restrict=0)
        _, trace = simplify.core(sp)
        assert calls == {"find_beats": 1, "restrict": len(trace.steps)}

"""Checks on the benchmark's tooling that need only the library.

`perfbench/spans.py` skips a traced name that no longer exists, so a
rename would silently drop that layer's metrics from the traced run.
"""

import importlib.util
import sys
from pathlib import Path

import posheaf.cli  # noqa: F401  (loads every module the tracer wraps)

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

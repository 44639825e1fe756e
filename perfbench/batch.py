"""The random-batch workload: small sheaved spaces through the public API.

Each space is loaded, checked for commutativity, and its cohomology is
computed before simplification, after `simplify_pipeline` with the
acyclic-down strategy, and after `core`.  Run as a child process:

    PYTHONPATH=src python perfbench/batch.py BATCH.json RESULTS.json

RESULTS.json holds, per space, either {"betti": [before, after
acyclic-down, after core], "removed": [acyclic-down, core]} or
{"error": traceback}.
"""

from __future__ import annotations

import json
import sys
import traceback

import posheaf
from posheaf import documents

STRATEGY = "acyclic-down"


def run_space(data) -> dict:
    sp = documents.document_space(documents.parse_space(data))
    ok, err = posheaf.check_commutativity(sp.sheaf)
    if not ok:
        raise ValueError(f"non-commuting diagram between {err.lower!r} and {err.upper!r}")
    before = posheaf.sheaf_cohomology(sp)
    reduced, trace = posheaf.simplify_pipeline(sp, STRATEGY)
    after = posheaf.sheaf_cohomology(reduced)
    cored, core_trace = posheaf.core(sp)
    after_core = posheaf.sheaf_cohomology(cored)
    return {
        "betti": [list(h.betti_trimmed()) for h in (before, after, after_core)],
        "removed": [len(trace.steps), len(core_trace.steps)],
    }


def run_batch(src, dst) -> None:
    with open(src) as fh:
        spaces = json.load(fh)
    results = []
    for data in spaces:
        try:
            results.append(run_space(data))
        except Exception:  # one bad space must not hide the rest of the batch
            results.append({"error": traceback.format_exc()})
    with open(dst, "w") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    run_batch(*sys.argv[1:])

"""Spans around the names each layer of posheaf calls through.

The traced run replaces module attributes and methods of posheaf by
wrappers that record a span (name, start, end, parent) and a few
counts, runs the workload in-process, and restores the originals.  A
target that no longer exists is skipped, and the metrics built only on
it are reported as absent rather than as zero.

Spans of kind "self" report self time: the span's time minus the time
of the spans nested directly inside it.  Spans of kind "phase" report
the whole time of a stage (a replay, a certification), because their
self time is only loop overhead.  The tracer counts inside spans of its
own, which both kinds leave out.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

OVERHEAD = "trace.count"
OP = "op"


def _nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


def _entries(*ms) -> int:
    return sum(m.rows * m.cols for m in ms)


_RANK = ("exact_linalg.rank_calls", "exact_linalg.rank_nnz", "exact_linalg.matrix_entries")
_COMPOSE = ("exact_linalg.compose_calls", "exact_linalg.matrix_entries")
_SNF = ("exact_linalg.snf_calls", "exact_linalg.matrix_entries")

# (span, module, attribute, kind, counter names, counts(args, result))
TARGETS = [
    ("documents.load", "posheaf.documents", "load_space", "self", (), None),
    ("documents.load", "posheaf.documents", "parse_space", "self", (), None),
    ("documents.load", "posheaf.documents", "document_space", "self", (), None),
    ("documents.dump", "posheaf.documents", "space_to_data", "self", (), None),
    ("documents.dump", "posheaf.documents", "dump_json", "self", (), None),
    ("poset.order_complex", "posheaf.poset", "order_complex", "self",
     ("poset.chains",), lambda a, r: (sum(r.counts()),)),
    ("poset.subposet", "posheaf.poset", "induced_subposet", "self",
     ("poset.subposet_calls",), lambda a, r: (1,)),
    ("sheaf.commutativity", "posheaf.sheaf", "check_commutativity", "self", (), None),
    ("sheaf.restrict", "posheaf.sheaf", "restrict", "self",
     ("sheaf.restrict_calls",), lambda a, r: (1,)),
    ("exact_linalg.rank", "posheaf.exact_linalg", "rank", "self",
     _RANK, lambda a, r: (1, _nnz(a[0]), _entries(a[0]))),
    ("exact_linalg.compose", "posheaf.exact_linalg", "compose", "self",
     _COMPOSE, lambda a, r: (1, _entries(a[0], a[1]))),
    ("exact_linalg.snf", "posheaf.exact_linalg", "smith_normal_form", "self",
     _SNF, lambda a, r: (1, _entries(a[0]))),
    ("cohomology.roos_build", "posheaf.cohomology", "roos_complex", "self",
     ("cohomology.cochain_dim",), lambda a, r: (sum(r.degrees),)),
    ("cohomology.d2_check", "posheaf.cohomology", "CochainComplex.check_d_squared",
     "self", (), None),
    ("cohomology.acyclic", "posheaf.cohomology", "is_acyclic", "self",
     ("cohomology.acyclic_calls",), lambda a, r: (1,)),
    ("simplify.find_beats", "posheaf.simplify", "find_beats", "self", (), None),
    ("simplify.pipeline", "posheaf.simplify", "simplify_pipeline", "phase",
     ("simplify.removed",), lambda a, r: (len(r[1].steps),)),
    ("simplify.replay", "posheaf.simplify", "SimplificationTrace.replay", "phase", (), None),
    ("simplify.core", "posheaf.simplify", "core", "phase",
     ("simplify.removed",), lambda a, r: (len(r[1].steps),)),
    ("cli.certify", "posheaf.cli", "_cohomology_for_certification", "phase", (), None),
]

KIND = {span: kind for span, _, _, kind, _, _ in TARGETS}
IMPORT_METRIC = "cli.import_s"  # timed by the caller, not by a wrapper



def _units() -> dict[str, str]:
    units = {}
    for span, _, _, _, names, _ in TARGETS:
        units[f"{span}_s"] = "s"
        units.update(dict.fromkeys(names, "count"))
    units[IMPORT_METRIC] = "s"
    return units


# every per-layer metric, in report order: name -> unit
METRICS = _units()


class Tracer:
    """Spans in flat arrays, kept in memory until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()  # metrics whose targets were found
        self._stack = [-1]
        self._patches = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, span, fn, names, counts):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts is not None and names[0] in tracer.present:
                idx = tracer.open(OVERHEAD)
                try:
                    for key, n in zip(names, counts(args, result)):
                        tracer.counts[key] = tracer.counts.get(key, 0) + n
                except (AttributeError, TypeError):
                    # the program changed the shape of what is counted:
                    # report these counts as absent rather than wrong
                    tracer.present.difference_update(names)
                tracer.close(idx)
            return result

        return wrapped

    def install(self) -> None:
        """Wrap every target that exists in the loaded posheaf modules.

        A function is replaced wherever a posheaf module binds it, so
        calls through `from x import f` aliases are traced too.  Methods
        are replaced on their class.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "posheaf" or n.startswith("posheaf.")]
        for span, modname, attr, _, names, counts in TARGETS:
            owner = sys.modules.get(modname)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None)
            if fn is None:
                continue
            self.present.add(f"{span}_s")
            self.present.update(names)
            wrapped = self._wrap(span, fn, names, counts)
            if path:
                self._patch(owner, last, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)

    def _patch(self, obj, name, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, name, value = self._patches.pop()
            setattr(obj, name, value)

    # -- reading spans --------------------------------------------------------

    def times(self, first: int, last: int) -> dict[str, float]:
        """Per-layer times of the spans first..last-1 (one whole op)."""
        n = last - first
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        child = [0.0] * n
        over = [0.0] * n
        overhead_id = self._ids.get(OVERHEAD)
        for k in reversed(range(n)):
            if self.name[first + k] == overhead_id:
                over[k] += dur[k]
            par = self.parent[first + k] - first
            if par >= 0:
                child[par] += dur[k]
                over[par] += over[k]
        out = {m: 0.0 for m in self.present if METRICS[m] == "s"}
        for k in range(n):
            span = self.names[self.name[first + k]]
            kind = KIND.get(span)
            if kind is not None:
                out[f"{span}_s"] += dur[k] - (child[k] if kind == "self" else over[k])
        return out

    def dump(self, path, meta: dict) -> None:
        data = dict(meta, names=self.names, name=list(self.name),
                    parent=list(self.parent), start=list(self.start), end=list(self.end))
        with open(path, "w") as fh:
            json.dump(data, fh)

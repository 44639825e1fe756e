"""Checks on the benchmark's tooling, on README's library example, on
the library's public names and imports, and on what its memos keep
alive, that need only the library.

`perfbench/spans.py` skips a traced name that no longer exists, so a
rename would silently drop that layer's metrics from the traced run.
Its `simplify.find_beats` metric counts on one call per space: the
deterministic pipeline starts from the space's memoized core, and a
later `core` of the same space is a memo hit.  A core keeps its
cohomology, so the benchmark's batch builds one complex per distinct
core.  No memo refers back to its space, so the batch's spaces are
freed without the cyclic garbage collector, and so is all that writing
their documents and reports makes.  Its `sheaf.restrict`
metrics read 0 on the benchmark's workloads, whose removals never call
`restrict`.  Its `cohomology.roos_build_s` and
`cohomology.cochain_dim` wrap `roos_complex` only, which the library
itself no longer calls: `simplify.sheaf_cohomology` builds
`sheaf_complex` on `simplicial_model` of the core, so they count
explicit `roos_complex` calls and read 0 on every workload.  The
library imports at module level only, and its modules import one
another without a cycle.
"""

import ast
import contextlib
import gc
import importlib.util
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import circle_with_apex, p5_gadget
from gen import gauged, zigzag_poset
import posheaf.cli  # noqa: F401  (loads every module the tracer wraps)
from posheaf import cohomology, documents, sheaf, simplify
from posheaf.exact_linalg import GF, QQ
from posheaf.sheaf import SheavedSpace, constant_sheaf

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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
def test_find_beats_once_per_run_and_no_restrict(strategy, monkeypatch):
    """`find_beats` runs once per space: a greedy run on a fresh space
    calls it once, and `core` after `simplify_pipeline` on the same
    space, a memo hit, not at all.  The removals, and those of the
    replay, are made on a working subspace, so none calls `restrict`."""
    calls = {"find_beats": 0, "restrict": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(simplify, "find_beats", counted("find_beats", simplify.find_beats))
    for module in (sheaf, simplify):
        if hasattr(module, "restrict"):
            monkeypatch.setattr(module, "restrict", counted("restrict", module.restrict))
    for p in (circle_with_apex(), p5_gadget()):
        sp = SheavedSpace(p, constant_sheaf(p, QQ))
        calls.update(find_beats=0, restrict=0)
        _, trace = simplify.simplify_pipeline(sp, strategy)
        assert trace.steps
        assert calls == {"find_beats": 1, "restrict": 0}
        _, trace = simplify.core(sp)
        assert trace.steps
        assert calls == {"find_beats": 1, "restrict": 0}
        sp = SheavedSpace(p, constant_sheaf(p, QQ))
        calls.update(find_beats=0, restrict=0)
        _, trace = simplify.core(sp)
        assert trace.steps
        assert calls == {"find_beats": 1, "restrict": 0}


def test_batch_builds_one_complex_per_core(monkeypatch):
    """The `random-batch` sequence on one space (cohomology, the
    acyclic-down pipeline, cohomology, `core`, cohomology) builds one
    complex when the pass removes nothing, since the result is then the
    core, and two when it removes something."""
    complexes = []
    field = cohomology.field_cohomology
    monkeypatch.setattr(cohomology, "field_cohomology",
                        lambda c: complexes.append(c) or field(c))
    seen = set()
    for p in (circle_with_apex(), p5_gadget(), zigzag_poset()):
        for ring in (QQ, GF(7)):
            sp = SheavedSpace(p, constant_sheaf(p, ring, 2))
            complexes.clear()
            simplify.sheaf_cohomology(sp)
            reduced, trace = simplify.simplify_pipeline(sp, "acyclic-down")
            simplify.sheaf_cohomology(reduced)
            cored, _ = simplify.core(sp)
            simplify.sheaf_cohomology(cored)
            removed = len(trace.steps) > len(simplify.core(sp)[1].steps)
            assert (reduced is cored) != removed
            assert len(complexes) == 1 + removed
            seen.add(removed)
    assert seen == {False, True}


def run_batch_sequence(p, ring, gauge):
    """The `random-batch` sequence and every other route through the
    memos, on a space over `ring` on p, gauged or constant."""
    f = constant_sheaf(p, ring, 2)
    sp = SheavedSpace(p, gauged(random.Random(3), f) if gauge else f)
    simplify.sheaf_cohomology(sp)
    for strategy in simplify.STRATEGIES:
        for rng in (None, random.Random(5)):
            reduced, _ = simplify.simplify_pipeline(sp, strategy, rng)
            simplify.sheaf_cohomology(reduced)
    simplify.core(sp)
    simplify.core(sp, random.Random(7))
    simplify.poset_core(p)
    simplify.poset_model(p)


@pytest.mark.parametrize("make", [circle_with_apex, p5_gadget])
def test_spaces_are_freed_without_the_cyclic_gc(make):
    """No memo refers back to its space, so everything that the batch's
    sequence makes is freed by reference counting alone."""
    gc.disable()
    try:
        gc.collect()
        for ring in (QQ, GF(7)):
            for gauge in (False, True):
                run_batch_sequence(make(), ring, gauge)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("make", [circle_with_apex, p5_gadget])
def test_documents_are_written_without_the_cyclic_gc(make):
    """`dump_json` writes by a function that does not refer to itself, so
    writing a space's document, a report that holds it, and a small
    nested value leaves nothing for the cyclic garbage collector."""
    p = make()
    sp = SheavedSpace(p, gauged(random.Random(3), constant_sheaf(p, GF(7), 2)))
    gc.disable()
    try:
        gc.collect()
        data = documents.space_to_data(sp, "GF:7")
        report = {"generator": {"tool": "posheaf", "version": "0"}, "betti": [1, 1],
                  "certified": True, "trace": [{"removed": p.elements[0], "rule": "downbeat"}],
                  "sizes": {"before": len(p), "after": len(p) - 1}, "timing_ms": 0.5,
                  "document": data}
        for value in (data, report, {"a": [1, 2, {"b": "c"}]}):
            documents.dump_json(value)
        assert gc.collect() == 0
    finally:
        gc.enable()


def readme_library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)


def test_readme_library_example_runs():
    """README's "Library example" uses only exported names and prints the
    circle's Betti numbers first."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_library_example(), {})
    assert out.getvalue().splitlines()[0] == "(1, 1)"


# public library names that nothing below reaches, and why each stays
UNREACHED_ON_PURPOSE = {
    "simplify.collapse_beat": "the paper's single beat removal; README documents it",
    "simplify.remove_acyclic_downset":
        "the paper's single acyclic-downset removal; README documents it",
    "exact_linalg.kernel_basis": "kernels mod p, for certified ranks over Q (ROADMAP item 4)",
}


def referenced_names(source: str) -> set:
    """The names, attributes and imported names that Python source uses."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_library_name_has_a_caller():
    """Each public function, class, and public method of a public class,
    defined in a library module, is referenced by the library's modules,
    by the benchmark (its own tests apart; a traced name by its last
    part) or by README's library example.  What only tests call belongs
    in tests/.  The match is by name, so a name that the benchmark
    defines for itself counts too."""
    modules = sorted(p for p in Path(simplify.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_oracles.py"]
    used = {attr.rpartition(".")[2] for _, _, attr, *_ in load_spans().TARGETS}
    used |= referenced_names(readme_library_example())
    for path in modules + bench:
        used |= referenced_names(path.read_text(encoding="utf-8"))
    defined = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef) and node.name[0] != "_":
                defined += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
    unreached = {qualified for qualified, name in defined if name not in used}
    assert unreached == set(UNREACHED_ON_PURPOSE)


def callers(node, name, scope=None):
    """The function around each call of `name` in an AST, in order."""
    func = getattr(node, "func", None)
    if getattr(func, "id", getattr(func, "attr", None)) == name:
        yield scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    for child in ast.iter_child_nodes(node):
        yield from callers(child, name, scope)


def test_integral_homology_of_a_poset_takes_one_route():
    """`simplify.poset_model` is the one route to a poset's integral
    homology: the CLI binds no complex builder and no core, and
    `simplify` calls `simplicial_model` inside `poset_model` only."""
    src = os.path.dirname(os.path.dirname(simplify.__file__))
    code = ("import sys, posheaf.cli as cli; "
            "sys.exit(bool({'simplicial_model', 'poset_core', 'core'} & set(vars(cli))))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    tree = ast.parse(Path(simplify.__file__).read_text(encoding="utf-8"))
    assert list(callers(tree, "simplicial_model")) == ["poset_model"]


def test_posets_are_built_from_documents_only():
    """`documents.document_poset` is the one caller of `build_poset` in
    the library: every other poset is derived from one by the bridge
    rule, which checks nothing again."""
    found = []
    for path in sorted(Path(simplify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}.{scope}" for scope in callers(tree, "build_poset")]
    assert found == ["documents.document_poset"]


def test_only_exact_linalg_names_fraction():
    """Scalar parsing has one owner: among the library's modules only
    `exact_linalg` names `Fraction`, so no other module reads a scalar
    by a grammar of its own."""
    modules = sorted(Path(simplify.__file__).parent.glob("*.py"))
    naming = [p.stem for p in modules
              if "Fraction" in referenced_names(p.read_text(encoding="utf-8"))]
    assert naming == ["exact_linalg"]


def relative_imports(tree) -> set:
    """The sibling modules that a module imports relatively; `from .`
    alone imports the package's `__init__`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or "__init__")
    return found


def test_imports_sit_at_module_level_and_form_no_cycle():
    """No library module imports inside a function, and the relative
    imports between the library's modules form no cycle, so each
    module loads with every name it uses."""
    graph, nested = {}, []
    for path in sorted(Path(simplify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = relative_imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.stem}.{node.name}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []
    done, stack = set(), []

    def visit(module):
        assert module not in stack, " -> ".join(stack[stack.index(module):] + [module])
        if module not in done:
            stack.append(module)
            for target in sorted(graph[module]):
                visit(target)
            stack.pop()
            done.add(module)

    for module in graph:
        visit(module)

"""Command-line front end.

Commands: validate, cohomology, homology, simplify, core.  Every
complex is built on `poset.simplicial_model` of a beat core: the core's
own simplicial complex if it is a face poset, its order complex
otherwise.  Sheaf cohomology takes the core of the sheaved space, each
simplex carrying the stalk at its element (`cohomology.sheaf_complex`);
integral homology (`homology`, the Z certification) takes Stong's core
of the poset, `simplify.poset_model`; `homology` reads only the poset.
Every `simplify` strategy takes any sheaf.  A Z document is
its poset with the constant sheaf (certified by integral homology),
whose block a command ignores with a warning; `cohomology` refuses it.
Reports go to stdout as JSON, diagnostics to stderr.  Exit codes: 0
success, 1 usage (also an `--out` path that cannot be written), 2
parse/structure, 3 commutativity (naming a pair u < v whose composites
along two cover paths differ), 4 the replay refused the trace, 5 input
too large: the order complex of a beat core that a command builds on
has more than `poset.MAX_CHAINS` chains (a core that is a simplicial
face poset lists no chain).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import __version__
from .cohomology import (
    HomologyResult,
    integral_homology,
    reduce_homology,
)
from .documents import (
    DocumentError,
    document_poset,
    document_space,
    dump_json,
    load_space,
    space_to_data,
)
from .poset import ChainCountError
from .sheaf import check_commutativity
from .simplify import (
    STRATEGIES,
    STRATEGY_BEATS,
    ReplayError,
    poset_model,
    sheaf_cohomology,
    simplify_pipeline,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMMUTATIVITY = 3
EXIT_CERTIFICATION = 4
EXIT_TOO_LARGE = 5


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


def _degree(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid degree {text!r}")
    if d < 0:
        raise argparse.ArgumentTypeError(f"degree must be at least 0, got {d}")
    return d


def _build_parser() -> _Parser:
    parser = _Parser(prog="posheaf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"posheaf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structure and commutativity")
    p.add_argument("path")

    p = sub.add_parser("cohomology", help="sheaf cohomology Betti numbers")
    p.add_argument("path")
    p.add_argument("--max-degree", type=_degree, default=None)

    p = sub.add_parser("homology", help="integral homology of the order complex")
    p.add_argument("path")

    p = sub.add_parser("simplify", help="cohomology-preserving simplification")
    p.add_argument("path")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_BEATS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("core", help="beat-collapse to the core")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(strategy=STRATEGY_BEATS, seed=None)
    return parser


def _warn_if_block_ignored(doc) -> None:
    if doc.has_sheaf_block():
        print("warning: sheaf block ignored for integral homology", file=sys.stderr)


def _commutative_space(doc):
    """The document's space, if its diagram commutes (else exit 3)."""
    if doc.field_tag == "Z":
        _warn_if_block_ignored(doc)
    sp = document_space(doc)
    ok, err = check_commutativity(sp.sheaf)
    if not ok:
        print(
            f"non-commuting diagram between {err.lower!r} and {err.upper!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_COMMUTATIVITY)
    return sp


def _betti_report(h: HomologyResult) -> list[int]:
    return list(h.betti_trimmed())


def _torsion_report(h: HomologyResult) -> list[list[int]]:
    return [list(t) for t in h.torsion_trimmed()]


def cmd_validate(args) -> int:
    _commutative_space(load_space(args.path))
    print("ok")
    return EXIT_OK


def cmd_cohomology(args) -> int:
    doc = load_space(args.path)
    if doc.field_tag == "Z":
        print(
            "field 'Z' has no sheaf cohomology here; use the homology command",
            file=sys.stderr,
        )
        return EXIT_USAGE
    sp = _commutative_space(doc)
    t0 = time.monotonic()
    h = sheaf_cohomology(sp)
    betti = _betti_report(h)
    if args.max_degree is not None:
        betti = betti[: args.max_degree + 1]
    report = {
        "generator": _generator(),
        "betti": betti,
        "sizes": {"elements": len(sp.poset)},
        "timing_ms": _ms(t0),
    }
    print(dump_json(report), end="")
    return EXIT_OK


def cmd_homology(args) -> int:
    doc = load_space(args.path)
    _warn_if_block_ignored(doc)
    poset = document_poset(doc)
    t0 = time.monotonic()
    unred = integral_homology(poset_model(poset))
    red = reduce_homology(unred)
    report = {
        "generator": _generator(),
        "betti": _betti_report(unred),
        "torsion": _torsion_report(unred),
        "reduced_betti": _betti_report(red),
        "reduced_torsion": _torsion_report(red),
        "sizes": {"elements": len(poset)},
        "timing_ms": _ms(t0),
    }
    print(dump_json(report), end="")
    return EXIT_OK


def _cohomology_for_certification(doc, sp) -> HomologyResult:
    if doc.field_tag == "Z":
        return reduce_homology(integral_homology(poset_model(sp.poset)))
    return sheaf_cohomology(sp)


def cmd_simplify(args) -> int:
    doc = load_space(args.path)
    sp = _commutative_space(doc)
    rng = random.Random(args.seed) if args.seed is not None else None
    t0 = time.monotonic()
    try:
        result, trace = simplify_pipeline(sp, args.strategy, rng=rng)
    except ReplayError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION
    # the replay re-checked every step: one cohomology serves both sides
    after = _cohomology_for_certification(doc, result)
    report = {
        "generator": _generator(args.strategy),
        "betti": _betti_report(after),
        "betti_after": _betti_report(after),
        "certified": True,
        "trace": [{"removed": s.removed, "rule": s.rule} for s in trace.steps],
        "sizes": {"before": len(sp.poset), "after": len(result.poset)},
        "timing_ms": _ms(t0),
    }
    if doc.field_tag == "Z":
        report["torsion"] = report["torsion_after"] = _torsion_report(after)
    out_data = space_to_data(result, doc.field_tag, generator=_generator(args.strategy))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(dump_json(out_data))
        except OSError as e:
            print(f"cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        report["document"] = out_data
    print(dump_json(report), end="")
    return EXIT_OK


def _generator(strategy: str = None) -> dict:
    g = {"tool": "posheaf", "version": __version__}
    if strategy:
        g["strategy"] = strategy
    return g


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


_COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "homology": cmd_homology,
    "simplify": cmd_simplify,
    "core": cmd_simplify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except DocumentError as e:
        print(f"invalid document: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ChainCountError as e:
        print(f"input too large: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except SystemExit as e:
        return int(e.code or 0)


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

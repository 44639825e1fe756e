"""Cohomology-preserving removals: beats, cores, acyclic down/upsets.

Each rule is one row of `RULES`.  Beat collapses follow the classical
order-theoretic notion, with the sheaf-side requirement that an
upbeat's unique outgoing restriction map is an isomorphism.  The
acyclic-downset rule removes any element whose strict downset has the
integral homology of a point; acyclic-upset does the same for the
strict upset when every cover map on or above the element is
invertible.  Each predicate is valid for any sheaf, and `RULES` is the
only beat test: a poset's core is that of its constant sheaf
(:func:`poset_core`).  Acyclicity is decided in two steps: a nonzero
Moebius value rejects, and the integral homology of :func:`poset_model`
of the down- or upset, the one route to a poset's integral homology,
decides the rest.

Every removal loop (:func:`core`, :func:`simplify_pipeline`,
:meth:`SimplificationTrace.replay`, :func:`find_beats`) runs on a working
subspace of :mod:`posheaf.sheaf`, and the predicates of `RULES` take a
working subspace only.  The beat rules read its cover tables, so a beat
removal builds nothing; the pass rules read the space it builds.  Only
this module reads and writes a space's memos: :func:`core` computes a
space's deterministic core once (a space that a loop returns is its own
core), :func:`simplify_pipeline` starts from it without a random order,
and :func:`sheaf_cohomology` computes a core's cohomology once.
"""

from __future__ import annotations

import bisect
import random
from collections import namedtuple
from typing import Optional

from .cohomology import HomologyResult, is_acyclic, space_cohomology
from .exact_linalg import QQ, rank
from .poset import OrderComplex, Poset, induced_subposet, simplicial_model
from .sheaf import SheavedSpace, _WorkingSubspace, constant_sheaf


class SimplifyError(Exception):
    pass


class ReplayError(SimplifyError):
    """A trace that its replay refuses or does not reproduce."""


DOWNBEAT = "downbeat"
UPBEAT = "upbeat"
ACYCLIC_DOWNSET = "acyclic-downset"
ACYCLIC_UPSET = "acyclic-upset"


def _acyclic_closure(p: Poset, s, dual: bool = False) -> bool:
    """True iff the strict downset of s (upset if `dual`) has acyclic
    order complex, decided past the Moebius test on its
    :func:`poset_model`.  Those verdicts are kept by element set on the
    poset, which shares them with every poset induced from it."""
    keep = p.strictly_above(s) if dual else p.strictly_below(s)
    if p.mobius(dual)[s]:
        return False
    verdicts = p._acyclic
    if keep not in verdicts:
        verdicts[keep] = is_acyclic(poset_model(induced_subposet(p, keep)))
    return verdicts[keep]


def _invertible(maps) -> bool:
    """True iff every map in `maps` is square of full rank."""
    return all(m.is_square() and rank(m) == m.rows for m in maps)


def _is_upbeat(w: _WorkingSubspace, e) -> bool:
    """A unique upper cover, reached by an invertible map."""
    ups = w.upper[e]
    return len(ups) == 1 and _invertible([w.root.sheaf.restriction(e, ups[0])])


def removable_by_acyclic_downset(sp: SheavedSpace, s) -> bool:
    """True iff the strict downset of s has acyclic order complex."""
    return _acyclic_closure(sp.poset, s)


def removable_by_acyclic_upset(sp: SheavedSpace, s) -> bool:
    """True iff the strict upset U of s has acyclic order complex and
    every cover map on {s} and U is invertible: the sheaf there is then
    isomorphic to the constant one with stalk F(s) = H*(U; F)."""
    p = sp.poset
    return _acyclic_closure(p, s, dual=True) and _invertible(
        [sp.sheaf.cover_maps[(u, v)] for u in (s, *p.strictly_above(s)) for v in p.upper_covers(u)])


# rule -> its predicate on a working subspace and an element
RULES = {
    DOWNBEAT: lambda w, e: len(w.lower[e]) == 1,
    UPBEAT: _is_upbeat,
    ACYCLIC_DOWNSET: lambda w, e: removable_by_acyclic_downset(w.space(), e),
    ACYCLIC_UPSET: lambda w, e: removable_by_acyclic_upset(w.space(), e),
}
BEATS = (DOWNBEAT, UPBEAT)

STRATEGY_BEATS = "beats"
STRATEGY_ACYCLIC_DOWN = "acyclic-down"
STRATEGY_CONSTANT_UPDOWN = "constant-updown"
# strategy -> the rules of the pass it makes whenever no beat is left
STRATEGY_RULES = {
    STRATEGY_BEATS: (),
    STRATEGY_ACYCLIC_DOWN: (ACYCLIC_DOWNSET,),
    STRATEGY_CONSTANT_UPDOWN: (ACYCLIC_DOWNSET, ACYCLIC_UPSET),
}
STRATEGIES = tuple(STRATEGY_RULES)


class BeatReport(namedtuple("BeatReport", "element kind")):
    """A beat `element` and its `kind`: DOWNBEAT or UPBEAT."""

    __slots__ = ()


class TraceStep(namedtuple("TraceStep", "removed rule")):
    """One removal: the `removed` element and the `rule` that allowed it."""

    __slots__ = ()


class SimplificationTrace(namedtuple("SimplificationTrace", "steps initial final")):
    """The `steps` (a tuple of TraceStep) that lead from the `initial`
    sheaved space to the `final` one."""

    __slots__ = ()

    def replay(self) -> SheavedSpace:
        """Re-run every removal from the initial space, re-checking the
        recorded rule, and only it, on a working subspace of the initial
        space; returns the final space or raises `ReplayError`."""
        w = _WorkingSubspace(self.initial)
        try:
            for step in self.steps:
                _remove_checked(w, step.removed, (step.rule,))
        except SimplifyError as e:
            raise ReplayError(f"replay refused the trace: {e}") from e
        return w.space()


def _first_rule(w: _WorkingSubspace, e, rules) -> Optional[str]:
    for r in rules:
        if RULES[r](w, e):
            return r
    return None


def _remove_checked(w: _WorkingSubspace, e, rules) -> None:
    """Remove e from w if one of `rules` holds there."""
    for r in rules:
        if r not in RULES:
            raise SimplifyError(f"unknown rule {r!r}")
    if e not in w.upper:
        raise SimplifyError(f"{e!r} is not an element; refusing to remove it")
    if _first_rule(w, e, rules) is None:
        raise SimplifyError(f"{e!r} fails {' and '.join(rules)}; refusing to remove it")
    w.remove(e)


def _checked_removal(sp: SheavedSpace, e, rules) -> SheavedSpace:
    """`sp` without e, if one of `rules` holds there."""
    w = _WorkingSubspace(sp)
    _remove_checked(w, e, rules)
    return w.space()


def find_beats(sp: SheavedSpace) -> list[BeatReport]:
    """All beat elements, sorted by name."""
    w = _WorkingSubspace(sp)
    kinds = ((e, _first_rule(w, e, BEATS)) for e in sorted(sp.poset.elements))
    return [BeatReport(e, k) for e, k in kinds if k is not None]


def collapse_beat(sp: SheavedSpace, v) -> SheavedSpace:
    """Remove a verified beat element, restricting the sheaf."""
    return _checked_removal(sp, v, BEATS)


def remove_acyclic_downset(sp: SheavedSpace, s) -> SheavedSpace:
    return _checked_removal(sp, s, (ACYCLIC_DOWNSET,))


def _greedy(sp: SheavedSpace, rules, rng) -> tuple[SheavedSpace, SimplificationTrace]:
    """Beats one at a time (lowest name first, or random with `rng`); when
    none is left, one pass over the elements (shuffled with `rng`) trying
    `rules` in table order, then beats again.  `find_beats` runs once, and
    not at all without `rng` on a space recorded as its own core: a
    removal can change the beat status of the removed element's covers
    only, so only they are tested again, before the next beat is chosen.

    The removals are made on one working subspace of `sp`, which builds a
    space only for a pass rule and at the end.  The space returned has no
    beat left, so it is recorded as its own core."""
    w, steps = _WorkingSubspace(sp), []
    own_core = rng is None and sp._core is not None and sp._core[0] is None
    kinds = {} if own_core else {b.element: b.kind for b in find_beats(sp)}
    beats = sorted(kinds)  # what find_beats would list, by name
    stale = set()  # elements whose covers changed since their last test

    def drop(e):
        if kinds.pop(e, None) is not None:
            del beats[bisect.bisect_left(beats, e)]

    def remove(e, rule):
        stale.update(w.lower[e], w.upper[e])
        stale.discard(e)
        w.remove(e)
        steps.append(TraceStep(e, rule))
        drop(e)

    while True:
        for x in sorted(stale):
            drop(x)
            kind = _first_rule(w, x, BEATS)
            if kind is not None:
                kinds[x] = kind
                bisect.insort(beats, x)
        stale.clear()
        if beats:
            e = rng.choice(beats) if rng is not None else beats[0]
            remove(e, kinds[e])
            continue
        candidates = sorted(w.upper) if rules else []
        if rng is not None:
            rng.shuffle(candidates)
        before = len(steps)
        for e in candidates:
            rule = _first_rule(w, e, rules)
            if rule is not None:
                remove(e, rule)
        if len(steps) == before:
            break
    out = w.space()
    if out._core is None:
        out._core = (None, ())
    return out, SimplificationTrace(tuple(steps), sp, out)


def core(sp: SheavedSpace, rng: Optional[random.Random] = None) -> tuple[SheavedSpace, SimplificationTrace]:
    """Collapse beats until none remain.

    Deterministic order (lowest name first) unless an `rng` is supplied,
    in which case each step removes a uniformly random beat; any order
    reaches an isomorphic core.  The deterministic core is computed once
    per space and kept on it with its steps, so a second call returns an
    equal pair with the same core.  A call with an `rng` does not read
    that memo, and writes it only to record a beat-free space as its own core.
    """
    if rng is not None:
        return _greedy(sp, (), rng)
    if sp._core is None:
        out, trace = _greedy(sp, (), None)
        if out is not sp:
            sp._core = (out, trace.steps)
    reduced, steps = sp._core if sp._core[0] is not None else (sp, ())
    return reduced, SimplificationTrace(steps, sp, reduced)


def sheaf_cohomology(sp: SheavedSpace) -> HomologyResult:
    """Sheaf cohomology (unreduced), computed on the :func:`core`, which
    has the same cohomology, by :func:`~posheaf.cohomology.space_cohomology`
    and kept on the core: every space with the same core object shares
    one complex.  The result has one degree per element of a longest
    chain of the input, as the input's own complex would; the chain
    budget (:class:`~posheaf.poset.ChainCountError`) applies to the core.
    """
    reduced, trace = core(sp)
    h = reduced._cohomology
    if h is None:
        h = reduced._cohomology = space_cohomology(reduced)
    if not trace.steps:
        return h
    pad = _longest_chain(sp.poset) - len(h.betti)
    return HomologyResult(h.betti + (0,) * pad)


def _longest_chain(p) -> int:
    """The number of elements in a longest chain of p."""
    length = {}
    for e in p.linear_extension():
        length[e] = 1 + max((length[u] for u in p.lower_covers(e)), default=0)
    return max(length.values(), default=0)


def poset_core(p: Poset) -> Poset:
    """Stong's core of p, which has p's homotopy type: the core of p's
    constant sheaf, whose maps are identities, so that its beats are p's
    beat points.  It shares p's acyclicity verdicts; p if p has no beat."""
    return core(SheavedSpace(p, constant_sheaf(p, QQ)))[0].poset


def poset_model(p: Poset) -> OrderComplex:
    """The complex that p's integral homology is computed on, here and in
    the CLI: :func:`~posheaf.poset.simplicial_model` of :func:`poset_core`."""
    return simplicial_model(poset_core(p))


def simplify_pipeline(
    sp: SheavedSpace,
    strategy: str = STRATEGY_BEATS,
    rng: Optional[random.Random] = None,
) -> tuple[SheavedSpace, SimplificationTrace]:
    """Greedy removal loop: beats first, then the strategy's pass rules
    (see STRATEGY_RULES), for any sheaf.  The loop starts from the
    :func:`core` of `sp` (the memoized one without an `rng`), which is
    where its beats lead, and the trace lists the core's steps first; if
    the pass removes nothing, the result is the core itself.  The trace is
    replayed from `sp` before returning (`ReplayError` if refused).
    """
    if strategy not in STRATEGY_RULES:
        raise SimplifyError(f"unknown strategy {strategy!r}")
    rules = STRATEGY_RULES[strategy]
    start, head = core(sp, rng)
    out, tail = _greedy(start, rules, rng)
    trace = SimplificationTrace(head.steps + tail.steps, sp, out)
    if trace.replay() != out:
        raise ReplayError("replay did not reproduce the result")
    return out, trace

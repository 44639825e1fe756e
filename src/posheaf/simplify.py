"""Cohomology-preserving removals: beats, cores, acyclic down/upsets.

Beat collapses follow the classical order-theoretic notion, with the
sheaf-side requirement that an upbeat's unique outgoing restriction map
is an isomorphism.  The acyclic-downset rule removes any element whose
strict downset has the integral homology of a point; the up/down
variant applies to constant coefficients only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .cohomology import is_acyclic
from .exact_linalg import rank
from .poset import Poset, downset, is_downbeat, is_upbeat_poset, order_complex, upset
from .sheaf import SheavedSpace, is_constant, restrict


class SimplifyError(Exception):
    pass


DOWNBEAT = "downbeat"
UPBEAT = "upbeat"
ACYCLIC_DOWNSET = "acyclic-downset"
ACYCLIC_UPSET = "acyclic-upset"

STRATEGY_BEATS = "beats"
STRATEGY_ACYCLIC_DOWN = "acyclic-down"
STRATEGY_CONSTANT_UPDOWN = "constant-updown"
STRATEGIES = (STRATEGY_BEATS, STRATEGY_ACYCLIC_DOWN, STRATEGY_CONSTANT_UPDOWN)


@dataclass(frozen=True)
class BeatReport:
    element: object
    kind: str  # DOWNBEAT or UPBEAT
    witness: object  # the unique lower (down) or upper (up) cover
    map_invertible: Optional[bool] = None  # upbeats only


@dataclass(frozen=True)
class TraceStep:
    removed: object
    rule: str


@dataclass(frozen=True)
class SimplificationTrace:
    steps: tuple[TraceStep, ...]
    initial: SheavedSpace
    final: SheavedSpace

    def replay(self) -> SheavedSpace:
        """Re-run every removal from the initial space, re-checking each
        rule's precondition; returns the reconstructed final space."""
        sp = self.initial
        for step in self.steps:
            if step.rule in (DOWNBEAT, UPBEAT):
                sp = collapse_beat(sp, step.removed)
            elif step.rule == ACYCLIC_DOWNSET:
                sp = remove_acyclic_downset(sp, step.removed)
            elif step.rule == ACYCLIC_UPSET:
                if not removable_by_acyclic_upset_constant(sp.poset, step.removed):
                    raise SimplifyError(
                        f"trace step {step} fails its removability predicate"
                    )
                sp = restrict(sp, set(sp.poset.elements) - {step.removed})
            else:
                raise SimplifyError(f"unknown rule {step.rule!r}")
        return sp


def beat_report(sp: SheavedSpace, e) -> Optional[BeatReport]:
    """The beat report of one element, or None if it is not a beat.

    Downbeats need no map condition; upbeats additionally require the
    unique outgoing cover map to be square of full rank.
    """
    p = sp.poset
    if is_downbeat(p, e):
        return BeatReport(e, DOWNBEAT, p.lower_covers(e)[0])
    if is_upbeat_poset(p, e):
        (v,) = p.upper_covers(e)
        m = sp.sheaf.cover_maps[(e, v)]
        if m.is_square() and rank(m) == m.rows:
            return BeatReport(e, UPBEAT, v, True)
    return None


def find_beats(sp: SheavedSpace) -> list[BeatReport]:
    """All beat elements, sorted by name."""
    reports = (beat_report(sp, e) for e in sorted(sp.poset.elements))
    return [r for r in reports if r is not None]


def collapse_beat(sp: SheavedSpace, v) -> SheavedSpace:
    """Remove a verified beat element, restricting the sheaf."""
    if v not in sp.poset or beat_report(sp, v) is None:
        raise SimplifyError(f"{v!r} is not a beat element; refusing to remove it")
    return restrict(sp, set(sp.poset.elements) - {v})


def core(sp: SheavedSpace, rng: Optional[random.Random] = None) -> tuple[SheavedSpace, SimplificationTrace]:
    """Collapse beats until none remain.

    Deterministic order (lowest name first) unless an `rng` is supplied,
    in which case each step removes a uniformly random beat; any order
    reaches an isomorphic core.
    """
    initial = sp
    steps = []
    while True:
        beats = find_beats(sp)
        if not beats:
            break
        r = rng.choice(beats) if rng is not None else beats[0]
        sp = restrict(sp, set(sp.poset.elements) - {r.element})
        steps.append(TraceStep(r.element, r.kind))
    return sp, SimplificationTrace(tuple(steps), initial, sp)


def removable_by_acyclic_downset(sp: SheavedSpace, s) -> bool:
    """True iff the strict downset of s has acyclic order complex."""
    return is_acyclic(order_complex(downset(sp.poset, s)))


def remove_acyclic_downset(sp: SheavedSpace, s) -> SheavedSpace:
    if not removable_by_acyclic_downset(sp, s):
        raise SimplifyError(
            f"downset of {s!r} is not acyclic; refusing to remove it"
        )
    return restrict(sp, set(sp.poset.elements) - {s})


def removable_by_acyclic_upset_constant(p: Poset, s) -> bool:
    """Down- or upset acyclicity; valid for constant coefficients only."""
    p._check(s)
    return is_acyclic(order_complex(downset(p, s))) or \
        is_acyclic(order_complex(upset(p, s)))


def simplify_pipeline(
    sp: SheavedSpace,
    strategy: str = STRATEGY_BEATS,
    rng: Optional[random.Random] = None,
) -> tuple[SheavedSpace, SimplificationTrace]:
    """Greedy removal loop, cheapest rule first.

    Strategies: `beats` collapses beats only; `acyclic-down` adds the
    acyclic-downset rule (any sheaf); `constant-updown` adds both the
    acyclic-downset and acyclic-upset rules and requires a constant
    sheaf.  The emitted trace is re-verified by replay before returning.
    """
    if strategy not in STRATEGIES:
        raise SimplifyError(f"unknown strategy {strategy!r}")
    if strategy == STRATEGY_CONSTANT_UPDOWN and not is_constant(sp.sheaf):
        raise SimplifyError("constant-updown strategy requires a constant sheaf")
    initial = sp
    steps = []
    while True:
        beats = find_beats(sp)
        if beats:
            r = rng.choice(beats) if rng is not None else beats[0]
            sp = restrict(sp, set(sp.poset.elements) - {r.element})
            steps.append(TraceStep(r.element, r.kind))
            continue
        if strategy == STRATEGY_BEATS:
            break
        # one full pass of acyclic removals before beats are retried;
        # eligibility is re-checked against the shrinking space as we go
        candidates = sorted(sp.poset.elements)
        if rng is not None:
            rng.shuffle(candidates)
        removed = False
        for s in candidates:
            if is_acyclic(order_complex(downset(sp.poset, s))):
                sp = restrict(sp, set(sp.poset.elements) - {s})
                steps.append(TraceStep(s, ACYCLIC_DOWNSET))
                removed = True
            elif strategy == STRATEGY_CONSTANT_UPDOWN and \
                    is_acyclic(order_complex(upset(sp.poset, s))):
                sp = restrict(sp, set(sp.poset.elements) - {s})
                steps.append(TraceStep(s, ACYCLIC_UPSET))
                removed = True
        if not removed:
            break
    trace = SimplificationTrace(tuple(steps), initial, sp)
    if trace.replay() != sp:
        raise SimplifyError("trace verification failed to reproduce the result")
    return sp, trace

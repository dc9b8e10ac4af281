"""Movable-marker construction of a complement-enumerable retraceable set.

The construction runs against the stage approximation of a total function
given by its settled values: the stage-s guess at argument n is v(n) once s
exceeds it, 0 before.  Markers i_0 < i_1 < ... start on the naturals and
only ever move upward; whenever the approximation changes at argument n, all
markers from n on are pushed past the current stage.  The surviving
positions form a set whose complement is enumerable, whose n-th element
dominates v(n), and which is retraced downward by a total function.
"""
from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .core import (ApproxProcess, CapacityError, Horizon, InputError, Schedule,
                   UsageError, derived_process, validate_monotone_membership)

if TYPE_CHECKING:
    from .cli import TraceWriter


class MarkerSystem:
    def __init__(self, horizon: Horizon,
                 removal_stage: Optional[dict[int, int]] = None):
        self.horizon = horizon
        self.removal_stage = {} if removal_stage is None else removal_stage

    def removed(self, pos: int, s: int) -> bool:
        t = self.removal_stage.get(pos)
        return t is not None and t <= s

    def live_at(self, s: int) -> Iterator[int]:
        p = 0
        while True:
            if not self.removed(p, s):
                yield p
            p += 1

    def marker(self, k: int, s: int) -> int:
        """Position of marker k in the stage-s snapshot (k-th smallest survivor)."""
        return next(islice(self.live_at(s), k, None))

    def final_stage(self) -> int:
        return self.horizon.stages - 1

    def final_markers(self, count: int) -> list[int]:
        return list(islice(self.live_at(self.final_stage()), count))

    def snapshot_below(self, bound: int, s: int) -> list[int]:
        return [p for p in range(bound) if not self.removed(p, s)]

    def membership_process(self) -> ApproxProcess:
        """Characteristic process of the surviving set (1 until removed)."""
        full = (1 << self.horizon.bits) - 1
        removed = self.complement_schedule().as_process(self.horizon)
        return derived_process(removed, lambda v: full & ~v, "marker-set")

    def complement_schedule(self) -> Schedule:
        """Removal events as an enumeration schedule (the r.e. complement)."""
        pairs = sorted(self.removal_stage.items(), key=lambda it: (it[1], it[0]))
        return Schedule.from_pairs(pairs)


def build_retraceable(values: Sequence[int], horizon: Horizon) -> MarkerSystem:
    """Run the marker construction against the settled values v(n).

    The approximation changes only at stage v + 1 for v >= 1, at the least
    argument n with v(n) = v (a settled 0 never shows a change), so only
    those stages move markers.  A negative value raises InputError.
    """
    first_arg: dict[int, int] = {}
    for n, v in enumerate(values):
        if v < 0:
            raise InputError(f"settled value {v} at argument {n} is negative")
        first_arg.setdefault(v, n)
    system = MarkerSystem(horizon)
    for v in sorted(first_arg):
        s1 = v + 1
        if v == 0 or s1 >= horizon.stages:
            continue
        old = system.marker(first_arg[v], s1 - 1)
        # Remove exactly the survivors in [old marker, s1); marker n and all
        # later ones land at or beyond the current stage, earlier ones stay.
        # Every earlier removal happened before s1, so setdefault keeps it.
        for p in range(old, s1):
            system.removal_stage.setdefault(p, s1)
    return system


def retrace(m: MarkerSystem, x: int) -> int:
    """Total step-down function: final i_0 below the second marker, else the
    greatest survivor below x in the snapshot after stage x+1."""
    s_final = m.final_stage()
    i0 = m.marker(0, s_final)
    i1 = m.marker(1, s_final)
    if x <= i1:
        return i0
    snap_stage = x + 1
    if snap_stage > s_final:
        raise UsageError(f"snapshot after stage {snap_stage} is beyond the horizon")
    candidates = m.snapshot_below(x, snap_stage)
    if not candidates:
        return i0
    return max(candidates)


def count_h(m: MarkerSystem, x: int) -> int:
    """Surviving positions up to x in the snapshot after stage x+1, minus one.

    The raw cardinality counts the marker at x itself, so it exceeds the
    marker index by one; the normalization keeps h(i_n) = n.
    """
    snap_stage = x + 1
    if snap_stage > m.final_stage():
        raise UsageError(f"snapshot after stage {snap_stage} is beyond the horizon")
    return len(m.snapshot_below(x + 1, snap_stage)) - 1


# The CLI runner, dispatched from cli.RUNNERS.
def run_markers(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    # fixtures imports genericity and selfref, which import this module, so
    # a top-level import here would run them before MarkerSystem exists.
    from . import fixtures

    # count_h reads the snapshot after stage x + 1 at each final marker x,
    # and the last marker ends past the largest settled value v, so the
    # horizon needs v + 3 stages, as generic's marker build does.
    if max(fixtures.settle_plus5()) + 2 >= hz.stages:
        raise CapacityError("stage horizon too small for the marker construction")
    m = fixtures.marker_fixture(hz)
    finals = m.final_markers(20)
    trace.line({"markers": finals, "type": "final-markers"})
    checks = {
        "dominates": all(finals[n] > n + 5 for n in range(20)),
        "retrace": all(retrace(m, finals[n + 1]) == finals[n]
                       for n in range(19)),
        "count": all(count_h(m, finals[n]) == n for n in range(20)),
        # The marker set is complement-enumerable: membership only ever moves
        # 1 -> 0, so the down-direction validator is the right contract here.
        "complement-monotone": bool(validate_monotone_membership(
            m.membership_process(), "down")),
    }
    return checks

"""Movable-marker construction of a complement-enumerable retraceable set.

Given a stage approximation to a total function that settles on the horizon,
markers i_0 < i_1 < ... start on the naturals and only ever move upward;
whenever the approximation changes at argument n, all markers from n on are
pushed past the current stage.  The surviving positions form a set whose
complement is enumerable, whose n-th element dominates the settled function
value at n, and which is retraced downward by a total function.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .core import (ApproxProcess, Horizon, InputError, LimitFunctionApprox,
                   Schedule, UsageError)


@dataclass
class MarkerSystem:
    horizon: Horizon
    removal_stage: dict[int, int] = field(default_factory=dict)

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
        for i, p in enumerate(self.live_at(s)):
            if i == k:
                return p
        raise AssertionError("unreachable: survivor stream is infinite")

    def final_stage(self) -> int:
        return self.horizon.stages - 1

    def final_markers(self, count: int) -> list[int]:
        s = self.final_stage()
        out = []
        for i, p in enumerate(self.live_at(s)):
            if i == count:
                break
            out.append(p)
        return out

    def snapshot_below(self, bound: int, s: int) -> list[int]:
        return [p for p in range(bound) if not self.removed(p, s)]

    def membership_process(self, label: str = "marker-set") -> ApproxProcess:
        """Characteristic process of the surviving set (1 until removed)."""
        hz = self.horizon
        full = (1 << hz.bits) - 1
        removed_masks: list[int] = []
        mask = 0
        by_stage: dict[int, list[int]] = {}
        for p, t in self.removal_stage.items():
            if p < hz.bits:
                by_stage.setdefault(t, []).append(p)
        for s in range(hz.stages):
            for p in by_stage.get(s, ()):
                mask |= 1 << (hz.bits - 1 - p)
            removed_masks.append(mask)
        return ApproxProcess(lambda s: full & ~removed_masks[s], hz, label)

    def complement_schedule(self) -> Schedule:
        """Removal events as an enumeration schedule (the r.e. complement)."""
        pairs = sorted(self.removal_stage.items(), key=lambda it: (it[1], it[0]))
        return Schedule.from_pairs(pairs, "re-set")


def _validate_bounded(f: LimitFunctionApprox) -> None:
    for n in range(f.arg_count):
        if f.value(0, n) != 0:
            raise InputError("stage-0 approximation must be identically 0")
    for s in range(1, f.stages):
        for n in range(f.arg_count):
            if f.value(s, n) >= s:
                raise InputError(
                    f"approximation value {f.value(s, n)} at stage {s} breaks the "
                    "stage bound (values must stay below the stage)")


def build_retraceable(f: LimitFunctionApprox, horizon: Horizon) -> MarkerSystem:
    """Run the marker construction against the stage approximation of f."""
    if f.stages != horizon.stages:
        raise UsageError("approximation and horizon disagree on stage count")
    _validate_bounded(f)
    system = MarkerSystem(horizon)
    for s1 in range(1, horizon.stages):
        n = next((k for k in range(f.arg_count)
                  if f.value(s1 - 1, k) != f.value(s1, k)), None)
        if n is None:
            continue
        old = system.marker(n, s1 - 1)
        # Remove exactly the survivors in [old marker, s1); marker n and all
        # later ones land at or beyond the current stage, earlier ones stay.
        for p in range(old, s1):
            if not system.removed(p, s1 - 1):
                system.removal_stage[p] = s1
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


def trivial_marker_system(horizon: Horizon) -> MarkerSystem:
    """The unmoved layout: every natural survives, i_n = n."""
    return MarkerSystem(horizon)

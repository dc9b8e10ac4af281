"""Diagonalization against a catalog and a list of enumeration schedules.

The constructed set is the complement of one moving point per catalog index.
The point for index e sits at 2^e * 3^d(e); the exponent d(e) tracks the
running maximum of a marker F(e) read off the catalog's zero positions, plus
a one-time bump fired when the e-th enumeration schedule shows the tripled
point but not the point itself.  Point moves are lex-increasing because the
vacated position rejoins the set at a smaller index than the one removed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (ApproxProcess, CapacityError, Numbering, Prefix, Schedule,
                   UsageError, schedule_member)


def compute_F(nu: Numbering, e: int, s: int) -> int:
    """Maximum over i <= e of the position of the (e+1)-st zero of the stage-s
    prefix of the i-th catalog process."""
    if e >= nu.index_range:
        raise UsageError(f"index {e} outside the catalog")
    best = 0
    N = nu.horizon.bits
    for i in range(e + 1):
        value = nu.at(i).prefix(s).value
        zeros_seen = 0
        pos = None
        for n in range(N):
            if not (value >> (N - 1 - n)) & 1:
                zeros_seen += 1
                if zeros_seen == e + 1:
                    pos = n
                    break
        if pos is None:
            raise CapacityError(
                f"catalog index {i} has fewer than {e + 1} zeros at stage {s}")
        best = max(best, pos)
    return best


@dataclass
class DiagonalState:
    e_cap: int
    d_cap: int
    F: list[list[int]] = field(default_factory=list)  # per stage, per e
    d: list[list[int]] = field(default_factory=list)
    x: list[list[int]] = field(default_factory=list)
    trigger_stages: dict[int, list[int]] = field(default_factory=dict)

    def active(self) -> int:
        """Number of tracked indices, the same at every stage.

        Every index is tracked from stage 0: activating index e only at stage
        e would remove its point mid-run, a lex decrease.
        """
        return self.e_cap + 1

    def trace_rows(self) -> list[dict]:
        rows = []
        for s in range(len(self.x)):
            for e in range(len(self.x[s])):
                rows.append({"stage": s, "e": e, "F": self.F[s][e],
                             "d": self.d[s][e], "x": self.x[s][e]})
        return rows


def build_diagonal(nu: Numbering, Ws: Sequence[Schedule], e_cap: int = 8,
                   d_cap: int = 12) -> tuple[ApproxProcess, DiagonalState]:
    """Run the point-moving construction against a catalog and schedules."""
    for W in Ws:
        if W.kind != "re-set":
            raise UsageError("diagonalization schedules must be enumerations")
    hz = nu.horizon
    e_cap = min(e_cap, nu.index_range - 1, len(Ws) - 1, hz.stages - 1)
    if e_cap < 0:
        raise UsageError("need at least one catalog index and one schedule")
    state = DiagonalState(e_cap, d_cap)
    cur_F: dict[int, int] = {}
    cur_d: dict[int, int] = {}
    bumped: dict[int, bool] = {}
    for s in range(hz.stages):
        row_F, row_d, row_x = [], [], []
        for e in range(state.active()):
            F = compute_F(nu, e, s)
            if e not in cur_F or cur_F[e] != F:
                cur_F[e] = F
                bumped[e] = False
            cur_d[e] = max(cur_d.get(e, 0), F)
            x = (1 << e) * 3 ** cur_d[e]
            if not bumped[e] and schedule_member(Ws[e], x, s) == 0 \
                    and schedule_member(Ws[e], 3 * x, s) == 1:
                cur_d[e] += 1
                bumped[e] = True
                state.trigger_stages.setdefault(e, []).append(s)
                x = 3 * x
            if cur_d[e] > d_cap:
                raise CapacityError(f"exponent for index {e} exceeds the cap")
            row_F.append(F)
            row_d.append(cur_d[e])
            row_x.append(x)
        state.F.append(row_F)
        state.d.append(row_d)
        state.x.append(row_x)

    point_sets = [frozenset(row) for row in state.x]
    full = (1 << hz.bits) - 1

    def bit(s: int, y: int) -> int:
        return 0 if y in point_sets[s] else 1

    B = ApproxProcess(
        lambda s: full & ~Prefix.from_set(point_sets[s], hz.bits).value,
        hz, "diagonal", bit_fn=bit)
    return B, state

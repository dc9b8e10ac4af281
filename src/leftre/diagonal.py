"""Diagonalization against a catalog and a list of enumeration schedules.

The constructed set is the complement of one moving point per catalog index.
The point for index e sits at 2^e * 3^d(e); the exponent d(e) tracks the
running maximum of a marker F(e) read off the catalog's zero positions, plus
a one-time bump fired when the e-th enumeration schedule shows the tripled
point but not the point itself.  Point moves are lex-increasing because the
vacated position rejoins the set at a smaller index than the one removed.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Sequence

from . import fixtures
from .core import (ApproxProcess, CapacityError, Horizon, Numbering, Prefix,
                   Schedule, UsageError, change_stages, limit_estimate,
                   validate_left_re)

if TYPE_CHECKING:
    from .cli import TraceWriter

D_CAP = 12  # largest exponent d(e) a point may reach


def compute_F(nu: Numbering, e: int, s: int) -> int:
    """Maximum over i <= e of the position of the (e+1)-st zero of the stage-s
    prefix of the i-th catalog process."""
    if e >= nu.index_range:
        raise UsageError(f"index {e} outside the catalog")
    best = 0
    N = nu.horizon.bits
    full = (1 << N) - 1
    for i in range(e + 1):
        zeros = full & ~nu.at(i).value(s)
        if zeros.bit_count() <= e:
            raise CapacityError(
                f"catalog index {i} has fewer than {e + 1} zeros at stage {s}")
        # Clear the first e zeros; the highest bit left is the (e+1)-st.
        for _ in range(e):
            zeros ^= 1 << (zeros.bit_length() - 1)
        best = max(best, N - zeros.bit_length())
    return best


class DiagonalState:
    def __init__(self, e_cap: int, stages: int):
        self.e_cap = e_cap
        self.stages = stages
        # (stage, F row, d row, x row) at stage 0 and wherever a row changes
        self.points: list[tuple[int, list[int], list[int], list[int]]] = []
        self.trigger_stages: dict[int, list[int]] = {}

    def active(self) -> int:
        """Number of tracked indices, the same at every stage.

        Every index is tracked from stage 0: activating index e only at stage
        e would remove its point mid-run, a lex decrease.
        """
        return self.e_cap + 1

    def trace_rows(self) -> Iterator[dict]:
        """One row per stage and index, expanded from the points on demand."""
        ends = [p[0] for p in self.points[1:]] + [self.stages]
        for (start, row_F, row_d, row_x), end in zip(self.points, ends):
            for s in range(start, end):
                for e, (F, d, x) in enumerate(zip(row_F, row_d, row_x)):
                    yield {"stage": s, "e": e, "F": F, "d": d, "x": x}


def build_diagonal(nu: Numbering,
                   Ws: Sequence[Schedule]) -> tuple[ApproxProcess, DiagonalState]:
    """Run the point-moving construction against a catalog and schedules,
    tracking every index that has both a catalog process and a schedule."""
    hz = nu.horizon
    e_cap = min(nu.index_range, len(Ws)) - 1
    if e_cap < 0:
        raise UsageError("need at least one catalog index and one schedule")
    state = DiagonalState(e_cap, hz.stages)
    cur_F: dict[int, int] = {}
    cur_d: dict[int, int] = {}
    bumped: dict[int, bool] = {}
    # Each tracked schedule's first entry stage per element (sorted
    # descending, the least stage of a repeated element is written last), so
    # the trigger test is two lookups: y is in W_e at stage s iff
    # entered[e][y] <= s.
    tracked = Ws[:state.active()]
    entered = [dict(sorted(W.entries, reverse=True)) for W in tracked]
    # A row reads only the tracked processes and schedules, so it can move
    # only where one of them does.
    events = change_stages(nu.at(e) for e in range(state.active()))
    events.update(t for W in tracked for _, t in W.entries if t < hz.stages)
    for s in sorted(events):
        row_F, row_d, row_x = [], [], []
        for e in range(state.active()):
            F = compute_F(nu, e, s)
            if e not in cur_F or cur_F[e] != F:
                cur_F[e] = F
                bumped[e] = False
            cur_d[e] = max(cur_d.get(e, 0), F)
            x = (1 << e) * 3 ** cur_d[e]
            if (not bumped[e] and entered[e].get(x, s + 1) > s
                    and entered[e].get(3 * x, s + 1) <= s):
                cur_d[e] += 1
                bumped[e] = True
                state.trigger_stages.setdefault(e, []).append(s)
                x = 3 * x
            if cur_d[e] > D_CAP:
                raise CapacityError(f"exponent for index {e} exceeds the cap")
            row_F.append(F)
            row_d.append(cur_d[e])
            row_x.append(x)
        if not state.points or state.points[-1][1:] != (row_F, row_d, row_x):
            state.points.append((s, row_F, row_d, row_x))

    # B is the complement of row x: its value moves only at the points.
    full = (1 << hz.bits) - 1
    stages = [p[0] for p in state.points]

    def row_x(s: int) -> list[int]:
        return state.points[bisect_right(stages, s) - 1][3]

    B = ApproxProcess(
        lambda s: full & ~Prefix.from_set(row_x(s), hz.bits).value,
        hz, "diagonal", bit_fn=lambda s, y: 0 if y in row_x(s) else 1,
        moves=stages[1:])
    return B, state


# The CLI runner, dispatched from cli.RUNNERS.
def run_diagonal(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    nu = fixtures.diagonal_catalog(hz)
    Ws = [Schedule.from_pairs([]) for _ in range(nu.index_range)]
    B, state = build_diagonal(nu, Ws)
    for row in islice(state.trace_rows(), 200):
        trace.line({"type": "diag", **row})
    final = B.final_prefix()
    differs = all(final.value != limit_estimate(nu.at(e))[0].value
                  for e in range(nu.index_range))
    return {"validator": bool(validate_left_re(B)), "differs-from-catalog": differs}

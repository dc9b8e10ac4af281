"""Minimal/maximal set constructions over doubly-exponential interval blocks.

A bit-entry history drives, per interval I_n, a pair of moving markers: the
member marker a_n (the only member of A inside I_n) and its mirror image
b_n = g(a_n) (the only non-member of B inside I_n).  Marker positions are
decided arithmetically from arbitrary-precision block sums; the huge
intervals are never materialized.  The module also carries the superset,
splitting, witness and gadget constructions that live over the same layout.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Optional, Sequence

from .core import (ApproxProcess, CapacityError, Horizon, InputError, Prefix,
                   Schedule, UsageError, join, rank_parity, schedule_member)


class InternalInvariantError(RuntimeError):
    """An arithmetic invariant of the construction failed; never clamped."""


@dataclass(frozen=True)
class BlockLayout:
    """Disjoint intervals I_1, I_2, ... tiling the naturals from 0.

    I_n holds the full pairing range {offset(n) + x*2^(2^n) + y} for
    x, y < 2^(2^n), plus one spare slot so the interval maximum is never a
    pairing value.

    The interval bounds are summed once per layout into a table, so
    `offset` and `interval` are lookups and `interval_of` is a bisect.
    """

    n_cap: int

    def base(self, n: int) -> int:
        return 1 << (1 << n)

    def size(self, n: int) -> int:
        return (1 << (1 << (n + 1))) + 1

    @cached_property
    def _bounds(self) -> tuple[int, ...]:
        """bounds[n] is the first position past I_n (bounds[0] = 0), for
        n = 0 .. n_cap + 1."""
        bounds = [0]
        for n in range(1, self.n_cap + 2):
            bounds.append(bounds[-1] + self.size(n))
        return tuple(bounds)

    def _check_index(self, n: int) -> None:
        if not 1 <= n <= self.n_cap + 1:
            raise UsageError(f"interval index {n} outside layout cap {self.n_cap}")

    def offset(self, n: int) -> int:
        self._check_index(n)
        return self._bounds[n - 1]

    def interval(self, n: int) -> tuple[int, int]:
        self._check_index(n)
        bounds = self._bounds
        return bounds[n - 1], bounds[n] - 1

    def pair(self, n: int, x: int, y: int) -> int:
        b = self.base(n)
        if not (0 <= x < b and 0 <= y < b):
            raise UsageError("pairing coordinates out of range")
        return self.offset(n) + x * b + y

    def interval_of(self, u: int) -> Optional[int]:
        if u < 0:
            raise UsageError("positions are naturals")
        n = bisect_right(self._bounds, u, 1, self.n_cap + 1)
        return n if n <= self.n_cap else None

    def ind(self, u: int) -> int:
        n = self.interval_of(u)
        if n is None:
            raise InputError(f"position {u} outside the laid-out intervals")
        return n

    def mirror(self, u: int) -> int:
        """g: the r-th smallest element of its interval maps to the r-th largest."""
        n = self.ind(u)
        lo, hi = self.interval(n)
        return hi + lo - u

    def in_pairing_range(self, u: int) -> bool:
        n = self.interval_of(u)
        if n is None:
            return False
        lo, hi = self.interval(n)
        return u < hi  # the maximum is the spare slot


def _check_omega(omega: Schedule) -> None:
    if omega.kind != "omega-bits":
        raise UsageError(f"expected an omega-bits schedule, got {omega.kind!r}")
    if omega.entry_stage(0) is not None:
        raise InputError(
            "bit 0 of the driving history must stay 0; the block-sum bound "
            "c_n <= 2^(2^n) fails otherwise")


def compute_c(omega: Schedule, n: int, s: int) -> int:
    """Block sum: sum over m < 2^n of 2^(2^n - m) times the stage-s bit at m."""
    _check_omega(omega)
    top = 1 << n
    total = 0
    for m, t in omega.entries:
        if m < top and t <= s:
            total += 1 << (top - m)
    return total


@dataclass
class ZuluState:
    """Marker positions of one driving history over one layout.

    The member markers a_1..a_k of the covered intervals at a stage, and
    their mirrors b_1..b_k, are each computed once per stage into a tuple,
    so membership of a position is an interval lookup plus one tuple read.
    Block sums are not cached: they are read only while a stage's table is
    built.
    """

    omega: Schedule
    layout: BlockLayout
    _marker_cache: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _mirror_cache: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_omega(self.omega)

    def c(self, n: int, s: int) -> int:
        return compute_c(self.omega, n, s)

    def d(self, n: int, s: int) -> int:
        if n < 1:
            raise UsageError("block differences start at n = 1")
        return self.c(n, s) - self.layout.base(n - 1) * self.c(n - 1, s)

    def a(self, n: int, s: int) -> int:
        b = self.layout.base(n)
        d = self.d(n, s)
        if d > b - 1:
            raise InternalInvariantError(
                f"block difference {d} exceeds {b - 1} at (n={n}, s={s})")
        return self.layout.pair(n, self.c(n - 1, s), b - 1 - d)

    def b(self, n: int, s: int) -> int:
        return self.layout.mirror(self.a(n, s))

    def covered(self, s: int) -> int:
        return min(s, self.layout.n_cap)

    def markers(self, s: int) -> tuple[int, ...]:
        """(a_1, ..., a_k) at stage s, for the k = covered(s) intervals."""
        marks = self._marker_cache.get(s)
        if marks is None:
            marks = tuple(self.a(n, s) for n in range(1, self.covered(s) + 1))
            self._marker_cache[s] = marks
        return marks

    def mirrors(self, s: int) -> tuple[int, ...]:
        """(b_1, ..., b_k) at stage s: the mirror of each entry of markers(s)."""
        mirrors = self._mirror_cache.get(s)
        if mirrors is None:
            mirrors = tuple(self.layout.mirror(a) for a in self.markers(s))
            self._mirror_cache[s] = mirrors
        return mirrors


def build_minimal(state: ZuluState, horizon: Horizon,
                  label: str = "minimal") -> ApproxProcess:
    """The set holding exactly the member markers of the covered intervals."""
    layout = state.layout

    def bit(s: int, u: int) -> int:
        n = layout.interval_of(u)
        marks = state.markers(s)
        if n is None or n > len(marks):
            return 0
        return 1 if u == marks[n - 1] else 0

    return ApproxProcess(
        lambda s: Prefix.from_set(state.markers(s), horizon.bits).value,
        horizon, label, bit_fn=bit)


def build_maximal(state: ZuluState, horizon: Horizon,
                  label: str = "maximal") -> ApproxProcess:
    """The set missing exactly the mirror markers of the covered intervals."""
    layout = state.layout
    N = horizon.bits

    def bit(s: int, u: int) -> int:
        n = layout.interval_of(u)
        mirrors = state.mirrors(s)
        if n is None or n > len(mirrors):
            return 0
        return 0 if u == mirrors[n - 1] else 1

    def prefix_value(s: int) -> int:
        mirrors = state.mirrors(s)
        if not mirrors:
            return 0
        end = min(N, layout.offset(len(mirrors) + 1))
        covered = ((1 << end) - 1) << (N - end)
        return covered & ~Prefix.from_set(mirrors, N).value

    return ApproxProcess(prefix_value, horizon, label, bit_fn=bit)


@dataclass(frozen=True)
class BttReport:
    ok: bool
    witness: Optional[tuple[int, int]] = None  # (stage, position)
    checked: int = 0


def btt_check(A: ApproxProcess, B: ApproxProcess, layout: BlockLayout,
              stages: Optional[Sequence[int]] = None, exhaustive_below: int = 3,
              samples_per_interval: int = 32, seed: int = 0) -> BttReport:
    """Verify u in A iff mirror(u) not in B over the covered intervals.

    Small intervals are scanned exhaustively; the doubly-exponential ones are
    probed at the markers, the interval boundaries, and seeded samples.
    """
    if A.horizon != B.horizon:
        raise UsageError("processes must share a horizon")
    rng = Random(seed)
    if stages is None:
        stages = range(A.horizon.stages)
    checked = 0
    for s in stages:
        for n in range(1, min(s, layout.n_cap) + 1):
            lo, hi = layout.interval(n)
            # Every probe lies in I_n, so its mirror is hi + lo - u.
            if n < exhaustive_below:
                probes = range(lo, hi + 1)
            else:
                probes = {lo, lo + 1, hi - 1, hi}
                for _ in range(samples_per_interval):
                    probes.add(rng.randrange(lo, hi + 1))
                # Probe both sides of every membership boundary we can find.
                for u in list(probes):
                    probes.add(hi + lo - u)
                probes = sorted(probes)
            member_hits = []
            for u in probes:
                checked += 1
                a = A.bit(s, u)
                if a != 1 - B.bit(s, hi + lo - u):
                    return BttReport(False, (s, u), checked)
                if a:
                    member_hits.append(u)
            # Also probe the member marker itself via the mirror relation.
            for u in member_hits:
                checked += 1
                if B.bit(s, hi + lo - u) != 0:
                    return BttReport(False, (s, u), checked)
    return BttReport(True, None, checked)


def maxsep_superset(A: Schedule, horizon: Horizon,
                    label: str = "strict-superset") -> ApproxProcess:
    """Stage-wise union of an enumeration with every second complement element.

    Requires the schedule to enumerate exactly one new element per stage up to
    its exhaustion; afterwards the output is static.
    """
    if A.kind not in ("re-set", "k-set"):
        raise UsageError("superset construction needs an enumeration schedule")
    by_stage: dict[int, list[int]] = {}
    for x, t in A.entries:
        by_stage.setdefault(t, []).append(x)
    if by_stage:
        for t in range(max(by_stage) + 1):
            if len(by_stage.get(t, ())) != 1:
                raise InputError(
                    f"stage {t} enumerates {len(by_stage.get(t, ()))} elements; "
                    "exactly one per stage is required")
    # One element per stage from stage 0 on: the stage-s members are the
    # first s + 1 elements in stage order.
    order = [by_stage[t][0] for t in sorted(by_stage)]
    N = horizon.bits
    full = (1 << N) - 1
    values: list[int] = []
    M = 0
    for s in range(horizon.stages):
        if s < len(order) and order[s] < N:
            M |= 1 << (N - 1 - order[s])
        C = full & ~M
        values.append(M | (C & ~rank_parity(C, N)))

    def bit(s: int, x: int) -> int:
        members = frozenset(order[:s + 1])
        if x in members:
            return 1
        comp_rank = x - sum(1 for m in members if m < x)
        return comp_rank % 2

    return ApproxProcess(lambda s: values[s], horizon, label, bit_fn=bit)


def _even_positions(N: int) -> int:
    """Packed mask of positions 0, 2, 4, ... below N."""
    return int(("10" * N)[:N], 2)


def _split(value: int, N: int) -> int:
    """Keep every second 1 bit of `value`, starting with the first, and move
    each of the others to the position just before it."""
    kept = value & rank_parity(value, N)
    return kept | ((value ^ kept) << 1)


def split_subset(A: ApproxProcess, label: str = "split-E") -> ApproxProcess:
    """From an all-odd-members process, keep the even-indexed members and the
    predecessors of the odd-indexed ones."""
    N = A.horizon.bits
    evens = _even_positions(N)
    values = []
    for s in range(A.horizon.stages):
        members = A.prefix(s).value
        if members & evens:
            raise InputError("splitting requires all members odd at every stage")
        values.append(_split(members, N))
    return ApproxProcess(lambda s: values[s], A.horizon, label)


def split_superset(B: ApproxProcess, label: str = "split-F") -> ApproxProcess:
    """Dual form: from a process whose non-members are all odd, remove the
    even-indexed non-members and the predecessors of the odd-indexed ones."""
    N = B.horizon.bits
    full = (1 << N) - 1
    evens = _even_positions(N)
    values = []
    for s in range(B.horizon.stages):
        non_members = full & ~B.prefix(s).value
        if non_members & evens:
            raise InputError("dual splitting requires all non-members odd")
        values.append(full & ~_split(non_members, N))
    return ApproxProcess(lambda s: values[s], B.horizon, label)


def lowerfarm_witness(B: ApproxProcess, R: frozenset[int],
                      label: str = "window-witness") -> ApproxProcess:
    """Windowed union with a fixed recursive set, at stages where the window
    avoids it: output t is (B at stage s_t, restricted to [0, t]) union R."""
    N = B.horizon.bits
    S = B.horizon.stages
    final_members = B.prefix(S - 1).members()
    if R & final_members:
        raise InputError("the fixed set must avoid the final content")
    r_value = Prefix.from_set(R, N).value
    values = []
    s_prev = 0
    for t in range(S):
        window_top = min(t + 1, N)
        window_mask = ((1 << window_top) - 1) << (N - window_top)
        s_t = None
        for s in range(s_prev, S):
            if B.prefix(s).value & window_mask & r_value == 0:
                s_t = s
                break
        if s_t is None:
            raise CapacityError(f"no admissible stage for window [0, {t}]")
        s_prev = s_t
        values.append((B.prefix(s_t).value & window_mask) | r_value)
    return ApproxProcess(lambda s: values[s], B.horizon, label)


def tilde_set(A: ApproxProcess, W: Schedule, layout: BlockLayout,
              subset_form: bool = False, label: str = "tilde") -> ApproxProcess:
    """Triple-coded recombination of a one-marker-per-interval set with an
    enumeration over interval indices: members x with enumerated interval
    index contribute 3x, the others contribute 3x+1 and 3x+2 (the subset form
    drops the 3x+2 leg)."""
    if W.kind != "re-set":
        raise UsageError("the index set must be an enumeration schedule")
    N = A.horizon.bits

    def prefix_value(s: int) -> int:
        members = []
        for x in A.prefix(s).members():
            if 3 * x >= N:  # no leg of x inside the horizon
                continue
            if schedule_member(W, layout.ind(x), s):
                members.append(3 * x)
            else:
                members.append(3 * x + 1)
                if not subset_form:
                    members.append(3 * x + 2)
        return Prefix.from_set(members, N).value

    def bit(s: int, y: int) -> int:
        x, r = divmod(y, 3)
        if A.bit(s, x) == 0:
            return 0
        in_w = schedule_member(W, layout.ind(x), s)
        if r == 0:
            return in_w
        if r == 2 and subset_form:
            return 0
        return 1 - in_w

    return ApproxProcess(prefix_value, A.horizon, label, bit_fn=bit)


def max_join_gadget(B: ApproxProcess, W: Schedule,
                    label: str = "join-gadget") -> ApproxProcess:
    """Join with the characteristic process of an enumeration schedule."""
    return join(B, W.as_process(B.horizon), label)

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
from typing import TYPE_CHECKING, Optional, Sequence

from . import fixtures
from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   InternalInvariantError, Prefix, Record, Runs, Schedule,
                   UsageError, ValidationReport, change_stages,
                   complement_runs, derived_process, join, mirror_mismatch,
                   moves_within, points_process, read_param, stage_runs,
                   validate_left_re)

if TYPE_CHECKING:
    from .cli import TraceWriter


class BlockLayout(Record):
    """Disjoint intervals I_1, I_2, ... tiling the naturals from 0.

    I_n holds the full pairing range {offset(n) + x*2^(2^n) + y} for
    x, y < 2^(2^n), plus one spare slot so the interval maximum is never a
    pairing value.

    The interval bounds are summed once per layout into a table, so
    `offset` and `interval` are lookups and `interval_of` is a bisect.
    """

    def __init__(self, n_cap: int):
        self.n_cap = n_cap
        # _bounds[n] is the first position past I_n (_bounds[0] = 0), for
        # n = 0 .. n_cap + 1.
        bounds = [0]
        for n in range(1, n_cap + 2):
            bounds.append(bounds[-1] + self.size(n))
        self._bounds = tuple(bounds)

    def base(self, n: int) -> int:
        return 1 << (1 << n)

    def size(self, n: int) -> int:
        return (1 << (1 << (n + 1))) + 1

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


def compute_c(omega: Schedule, n: int, s: int) -> int:
    """Block sum: sum over m < 2^n of 2^(2^n - m) times the stage-s bit at m."""
    top = 1 << n
    return sum(1 << (top - m) for m in omega.members_at(s) if m < top)


class ZuluState:
    """Marker positions of one driving history over one layout.

    The member markers a_1..a_k of the covered intervals at a stage, and
    their mirrors b_1..b_k, are tuples computed once per distinct stage: a
    stage at which no omega entry lands and `covered` does not grow shares
    the tuple of the stage before.  Each c(n, s) is taken once while a
    table is built.
    """

    def __init__(self, omega: Schedule, layout: BlockLayout):
        if omega.entry_stage(0) is not None:
            raise InputError(
                "bit 0 of the driving history must stay 0; the block-sum "
                "bound c_n <= 2^(2^n) fails otherwise")
        self.omega = omega
        self.layout = layout
        self._tables: dict[tuple[int, int], tuple] = {}
        self._entries = sorted(t for _, t in omega.entries)
        # The stages whose markers may differ from the stage before's.
        self._moves = sorted({0, *range(1, layout.n_cap + 1), *self._entries})

    def _marker(self, n: int, s: int, c_prev: int, c_n: int) -> int:
        """a_n at stage s from the block sums c(n - 1, s) and c(n, s)."""
        b = self.layout.base(n)
        d = c_n - self.layout.base(n - 1) * c_prev
        if d > b - 1:
            raise InternalInvariantError(
                f"block difference {d} exceeds {b - 1} at (n={n}, s={s})")
        return self.layout.pair(n, c_prev, b - 1 - d)

    def a(self, n: int, s: int) -> int:
        if n < 1:
            raise UsageError("block differences start at n = 1")
        return self._marker(n, s, compute_c(self.omega, n - 1, s),
                            compute_c(self.omega, n, s))

    def b(self, n: int, s: int) -> int:
        return self.layout.mirror(self.a(n, s))

    def covered(self, s: int) -> int:
        return min(s, self.layout.n_cap)

    def _table(self, s: int) -> tuple:
        key = self.covered(s), bisect_right(self._entries, s)
        if key not in self._tables:
            sums = [compute_c(self.omega, n, s) for n in range(key[0] + 1)]
            marks = tuple(self._marker(n, s, sums[n - 1], sums[n])
                          for n in range(1, len(sums)))
            self._tables[key] = marks, tuple(map(self.layout.mirror, marks))
        return self._tables[key]

    def markers(self, s: int) -> tuple[int, ...]:
        """(a_1, ..., a_k) at stage s, for the k = covered(s) intervals."""
        return self._table(s)[0]

    def mirrors(self, s: int) -> tuple[int, ...]:
        """(b_1, ..., b_k) at stage s: the mirror of each entry of markers(s)."""
        return self._table(s)[1]


def build_minimal(state: ZuluState, horizon: Horizon) -> ApproxProcess:
    """The set holding exactly the member markers of the covered intervals.
    A stage value is computed only where the markers can move."""
    N = horizon.bits

    def bit(s: int, u: int) -> int:
        return 1 if u in state.markers(s) else 0

    def runs(s: int, lo: int, hi: int) -> Runs:
        return [(u, u) for u in state.markers(s) if max(lo, N) <= u <= hi]

    return ApproxProcess(
        lambda s: Prefix.from_set(state.markers(s), N).value, horizon,
        "minimal", bit_fn=bit, runs_fn=runs,
        moves=moves_within(state._moves, horizon))


def build_maximal(state: ZuluState, horizon: Horizon) -> ApproxProcess:
    """The set missing exactly the mirror markers of the covered intervals.
    A stage value is computed only where the mirrors can move."""
    layout = state.layout
    N = horizon.bits

    def end(s: int) -> int:
        """The first position past the intervals covered at stage s."""
        return layout.offset(state.covered(s) + 1)

    def bit(s: int, u: int) -> int:
        return 1 if u < end(s) and u not in state.mirrors(s) else 0

    def runs(s: int, lo: int, hi: int) -> Runs:
        lo = max(lo, N)
        return complement_runs(
            [(b, b) for b in state.mirrors(s) if lo <= b <= hi],
            lo, min(hi, end(s) - 1))

    def prefix_value(s: int) -> int:
        covered = (1 << N) - (1 << max(N - end(s), 0))
        return covered & ~Prefix.from_set(state.mirrors(s), N).value

    return ApproxProcess(prefix_value, horizon, "maximal", bit_fn=bit,
                         runs_fn=runs, moves=moves_within(state._moves, horizon))


RUNS_FROM = 3  # btt_check reads I_n across the horizon as runs from n = 3 on


def btt_check(A: ApproxProcess, B: ApproxProcess, layout: BlockLayout,
              stages: Optional[Sequence[int]] = None) -> ValidationReport:
    """Verify u in A iff mirror(u) not in B at every position of the covered
    intervals.  A failing report names the first failing stage and its least
    failing position; `checked` counts the positions verified.

    Each interval is compared as runs: `mirror_mismatch` of A's and B's
    `stage_runs`.  Without `stages`, only stage 0, the changes and past
    moves of A and B and the stages up to n_cap, where the covered
    intervals grow, are compared; every other stage repeats the one before,
    so its positions are counted with the compared stage before it.  Where
    I_1 or I_2 reaches past the horizon it is read one `bit` per position
    instead, so that small horizons still call `bit_fn`: the traced
    zulu-min run of `perfbench/test_perfbench.py` (16x32) counts them.
    """
    if A.horizon != B.horizon:
        raise UsageError("processes must share a horizon")
    N, S = A.horizon.bits, A.horizon.stages
    bounds = [layout.interval(n) for n in range(1, layout.n_cap + 1)]
    if stages is None:
        stages = sorted(change_stages((A, B)).union(
            A.past_moves, B.past_moves, range(1, min(len(bounds) + 1, S))))
        repeats = [t - s for s, t in zip(stages, [*stages[1:], S])]
    else:
        repeats = [1] * len(stages)
    checked = 0
    for s, repeat in zip(stages, repeats):
        va, vb = A.value(s), B.value(s)
        done = 0
        for n, (lo, hi) in enumerate(bounds[:s]):
            if hi >= N and n + 1 < RUNS_FROM:
                # Not `a == b`: a bit_fn answering neither 0 nor 1 fails.
                u = next((u for u in range(lo, hi + 1)
                          if A.bit(s, u) != 1 - B.bit(s, hi + lo - u)), None)
            else:
                u = mirror_mismatch(
                    stage_runs(va, N, lo, hi, A.past_runs(s, lo, hi)),
                    stage_runs(vb, N, lo, hi, B.past_runs(s, lo, hi)), lo, hi)
            if u is not None:
                return ValidationReport(
                    False, s, u, f"A at {u} equals B at its mirror {hi + lo - u}",
                    checked + done + u - lo + 1)
            done += hi - lo + 1
        checked += repeat * done
    return ValidationReport(True, checked=checked)


def maxsep_superset(A: Schedule, horizon: Horizon) -> ApproxProcess:
    """Stage-wise union of an enumeration with every second complement element.

    Requires the schedule to enumerate exactly one new element per stage up to
    its exhaustion; afterwards the output is static.
    """
    by_stage: dict[int, list[int]] = {}
    for x, t in A.entries:
        by_stage.setdefault(t, []).append(x)
    if by_stage:
        for t in range(max(by_stage) + 1):
            if len(by_stage.get(t, ())) != 1:
                raise InputError(
                    f"stage {t} enumerates {len(by_stage.get(t, ()))} elements; "
                    "exactly one per stage is required")
    N = horizon.bits
    full = (1 << N) - 1
    # Bit x of rp is the parity of the complement's members at positions
    # 0..x (`rank_parity`); entering x flips it at x and every later position.
    M = 0
    rp = _even_positions(N)
    points = {0: full & ~rp}  # entry stage -> value from that stage on
    for x, t in sorted(A.entries, key=lambda e: e[1]):
        if t < horizon.stages and x < N and not M >> (N - 1 - x) & 1:
            M |= 1 << (N - 1 - x)
            rp ^= (1 << (N - x)) - 1
            points[t] = M | (full & ~M & ~rp)
    return points_process(points, horizon, "strict-superset")


def rank_parity(value: int, length: int) -> int:
    """Prefix XOR of a packed stage value from position 0.

    Bit x of the result (position 0 most significant) is the parity of the
    1 bits of `value` at positions 0..x, so a 1 bit of `value` keeps a 1 in
    the result exactly when an even number of 1 bits precede it:
    `value & rank_parity(value, length)` holds every second 1 bit, starting
    with the first.  Takes log2(length) shift/xor steps.
    """
    shift = 1
    while shift < length:
        value ^= value >> shift
        shift <<= 1
    return value


def _even_positions(N: int) -> int:
    """Packed mask of positions 0, 2, 4, ... below N."""
    return int(("10" * N)[:N], 2)


def _split(value: int, N: int) -> int:
    """Keep every second 1 bit of `value`, starting with the first, and move
    each of the others to the position just before it."""
    kept = value & rank_parity(value, N)
    return kept | ((value ^ kept) << 1)


def split_subset(A: ApproxProcess) -> ApproxProcess:
    """From an all-odd-members process, keep the even-indexed members and the
    predecessors of the odd-indexed ones.  A stage value is computed only
    where A changes."""
    N = A.horizon.bits
    evens = _even_positions(N)

    def stage_value(members: int) -> int:
        if members & evens:
            raise InputError("splitting requires all members odd at every stage")
        return _split(members, N)

    return derived_process(A, stage_value, "split-E")


def split_superset(B: ApproxProcess) -> ApproxProcess:
    """Dual form: from a process whose non-members are all odd, remove the
    even-indexed non-members and the predecessors of the odd-indexed ones.
    A stage value is computed only where B changes."""
    N = B.horizon.bits
    full = (1 << N) - 1
    evens = _even_positions(N)

    def stage_value(value: int) -> int:
        non_members = full & ~value
        if non_members & evens:
            raise InputError("dual splitting requires all non-members odd")
        return full & ~_split(non_members, N)

    return derived_process(B, stage_value, "split-F")


def lowerfarm_witness(B: ApproxProcess, R: frozenset[int]) -> ApproxProcess:
    """Windowed union with a fixed recursive set, at stages where the window
    avoids it: output t is (B at stage s_t, restricted to [0, t]) union R.
    Raises InputError for a negative position in R and CapacityError when R
    reaches past the bit horizon."""
    N = B.horizon.bits
    S = B.horizon.stages
    if R and min(R) < 0:
        raise InputError(f"fixed position {min(R)} is negative")
    if R and max(R) >= N:
        raise CapacityError(
            f"fixed position {max(R)} needs {max(R) + 1} bits, got {N}")
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
            if B.value(s) & window_mask & r_value == 0:
                s_t = s
                break
        if s_t is None:
            raise CapacityError(f"no admissible stage for window [0, {t}]")
        s_prev = s_t
        values.append((B.value(s_t) & window_mask) | r_value)
    return ApproxProcess(lambda s: values[s], B.horizon, "window-witness")


def tilde_set(A: ApproxProcess, W: Schedule, layout: BlockLayout,
              subset_form: bool = False) -> ApproxProcess:
    """Triple-coded recombination of a one-marker-per-interval set with an
    enumeration over interval indices: members x with enumerated interval
    index contribute 3x, the others contribute 3x+1 and 3x+2 (the subset form
    drops the 3x+2 leg).  Its moves are where A's value or past answer
    moves (`bit` reads A past the horizon) or W gains an entry."""
    N = A.horizon.bits

    def stage_value(s: int) -> int:
        members = []
        for x in A.prefix(s).members():
            if 3 * x >= N:  # no leg of x inside the horizon
                continue
            if W.bit(layout.ind(x), s):
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
        in_w = W.bit(layout.ind(x), s)
        if r == 0:
            return in_w
        if r == 2 and subset_form:
            return 0
        return 1 - in_w

    moves = moves_within([*A.changes, *A.past_moves,
                          *(t for _, t in W.entries)], A.horizon)
    return ApproxProcess(stage_value, A.horizon, "tilde", bit_fn=bit,
                         moves=moves)


def max_join_gadget(B: ApproxProcess, W: Schedule) -> ApproxProcess:
    """Join with the characteristic process of an enumeration schedule."""
    return join(B, W.as_process(B.horizon), "join-gadget")


# CLI runners, dispatched from cli.RUNNERS.

def _process_rows(p: ApproxProcess, trace: TraceWriter) -> None:
    """Every 16th stage's prefix, then the last stage's."""
    S = p.horizon.stages
    for s in range(0, S, 16):
        trace.line({"prefix": p.prefix(s).to_string(), "stage": s, "type": "stage"})
    trace.line({"prefix": p.prefix(S - 1).to_string(), "stage": S - 1,
                "type": "stage"})


def _zulu_state(hz: Horizon, seed: int, params: dict) -> ZuluState:
    # A member marker of I_14 has more than 4300 digits, more than Python
    # writes for an int in a JSON trace line.
    n_cap = read_param(params, "n_cap", 3, minimum=1, maximum=13)
    omega = fixtures.omega_fixture(seed, hz, top_bit=min(2 ** n_cap - 1, 32))
    return ZuluState(omega, BlockLayout(n_cap))


def run_zulu(hz: Horizon, seed: int, params: dict, trace: TraceWriter,
             minimal: bool) -> dict:
    state = _zulu_state(hz, seed, params)
    A = build_minimal(state, hz)
    B = build_maximal(state, hz)
    for s in range(0, hz.stages, max(1, hz.stages // 16)):
        trace.line({"stage": s, "type": "markers", "a": list(state.markers(s))})
    target = A if minimal else B
    report = btt_check(A, B, state.layout)
    return {"validator": bool(validate_left_re(target)), "btt": report.ok}


def run_maxsep(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    if hz.bits < 3:
        raise CapacityError(
            f"a strict superset needs at least 3 bits, got {hz.bits}: the "
            f"complement has no second position to add")
    A = fixtures.one_per_stage_schedule(seed, hz)
    E = maxsep_superset(A, hz)
    _process_rows(E, trace)
    final_a = A.final_members()
    final_e = E.final_prefix().members()
    comp = [x for x in range(hz.bits) if x not in final_a]
    audit = all((x in final_e) == (r % 2 == 1) for r, x in enumerate(comp))
    return {"validator": bool(validate_left_re(E)),
            "strict-superset": final_a < final_e, "every-second": audit}


def run_split(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    odds = fixtures.one_per_stage_schedule(seed, Horizon(hz.stages, hz.bits // 2))
    A = Schedule.from_pairs([(2 * x + 1, s) for x, s in odds.entries]
                            ).as_process(hz, "odd-stream")
    E = split_subset(A)
    _process_rows(E, trace)
    members = sorted(A.final_prefix().members())
    e_final = E.final_prefix().members()
    alternate = all((m in e_final) == (k % 2 == 0) for k, m in enumerate(members))
    return {"validator": bool(validate_left_re(E)), "alternation": alternate}


def run_lowerfarm(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    B = fixtures.random_leftre_process(seed, hz, "lowerfarm-b", head_zeros=8)
    R = frozenset(read_param(params, "fixed", [0, 2, 4]))
    E = lowerfarm_witness(B, R)
    _process_rows(E, trace)
    return {"validator": bool(validate_left_re(E)),
            "contains-fixed": R <= E.final_prefix().members()}


def run_tilde(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    state = _zulu_state(hz, seed, params)
    A = build_minimal(state, hz)
    W = Schedule.from_pairs([(1, 2), (3, 5)])
    T = tilde_set(A, W, state.layout)
    _process_rows(T, trace)
    return {"validator": bool(validate_left_re(T))}

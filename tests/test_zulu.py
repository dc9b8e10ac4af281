from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from leftre.cli import _zulu_state
from leftre.core import (ApproxProcess, CapacityError, Horizon, InputError,
                         Prefix, Schedule, UsageError, complement_runs,
                         validate_left_re)
from leftre.fixtures import (omega_fixture, omega_worked_example,
                             one_per_stage_schedule, random_leftre_process)
from leftre.zulu import (BlockLayout, BttReport, ZuluState, btt_check,
                         build_maximal, build_minimal, compute_c,
                         lowerfarm_witness,
                         max_join_gadget, maxsep_superset, split_subset,
                         split_superset, tilde_set)

HZ = Horizon(64, 128)
LAYOUT = BlockLayout(3)


def formula_eval(omega_bits: str, n: int, layout: BlockLayout):
    """Independent evaluator: marker positions straight from the definitions,
    computed from an explicit bit string rather than a schedule."""
    def c(k):
        return sum((1 << ((1 << k) - m)) * int(omega_bits[m])
                   for m in range(1 << k) if m < len(omega_bits))
    base = 1 << (1 << n)
    half = 1 << (1 << (n - 1))
    d = c(n) - half * c(n - 1)
    a = layout.offset(n) + c(n - 1) * base + (base - 1 - d)
    lo, hi = layout.interval(n)
    return a, hi + lo - a


class TestLayout:
    def test_intervals_tile_from_zero(self):
        assert LAYOUT.interval(1) == (0, 16)
        assert LAYOUT.interval(2) == (17, 273)
        for n in (1, 2):
            assert LAYOUT.interval(n + 1)[0] == LAYOUT.interval(n)[1] + 1

    def test_spare_slot_outside_pairing_range(self):
        # The largest pairing value sits one below the interval maximum.
        _, hi = LAYOUT.interval(1)
        b = LAYOUT.base(1)
        assert LAYOUT.pair(1, b - 1, b - 1) == hi - 1

    def test_mirror_is_involution(self):
        for u in range(0, 270, 7):
            assert LAYOUT.mirror(LAYOUT.mirror(u)) == u
            assert LAYOUT.interval_of(LAYOUT.mirror(u)) == LAYOUT.interval_of(u)

    def test_interval_of(self):
        assert LAYOUT.interval_of(0) == 1
        assert LAYOUT.interval_of(17) == 2
        assert LAYOUT.interval_of(10 ** 12) is None


def oracle_offset(layout: BlockLayout, n: int) -> int:
    """Reference offset: the block sizes summed afresh on every call."""
    return sum(layout.size(k) for k in range(1, n))


def oracle_interval_of(layout: BlockLayout, u: int):
    """Reference interval lookup: a linear scan over the intervals."""
    for n in range(1, layout.n_cap + 1):
        lo = oracle_offset(layout, n)
        if lo <= u <= lo + layout.size(n) - 1:
            return n
    return None


class TestLayoutAgainstOracle:
    @pytest.mark.parametrize("n_cap", [1, 2, 3])
    def test_every_position(self, n_cap):
        layout = BlockLayout(n_cap)
        for n in range(1, n_cap + 2):
            lo = oracle_offset(layout, n)
            assert layout.offset(n) == lo
            assert layout.interval(n) == (lo, lo + layout.size(n) - 1)
        for u in range(oracle_offset(layout, n_cap + 1) + 6):
            assert layout.interval_of(u) == oracle_interval_of(layout, u), u

    @pytest.mark.parametrize("n_cap", [4, 5, 6])
    def test_interval_edges(self, n_cap):
        layout = BlockLayout(n_cap)
        for n in range(1, n_cap + 1):
            lo, hi = layout.interval(n)
            assert lo == oracle_offset(layout, n)
            assert hi == oracle_offset(layout, n + 1) - 1
            for u in (lo - 1, lo, hi, hi + 1):
                if u >= 0:
                    assert layout.interval_of(u) == oracle_interval_of(layout, u)
        assert layout.interval_of(layout.offset(n_cap + 1)) is None

    @pytest.mark.parametrize("n_cap", [1, 3, 6])
    def test_out_of_range_rejected(self, n_cap):
        layout = BlockLayout(n_cap)
        with pytest.raises(UsageError):
            layout.interval_of(-1)
        with pytest.raises(UsageError):
            layout.offset(0)
        with pytest.raises(UsageError):
            layout.offset(n_cap + 2)
        with pytest.raises(UsageError):
            layout.interval(n_cap + 2)


class TestWorkedExample:
    """The settled history 0100... : every value below recomputed by the
    independent formula evaluator."""

    def test_marker_values(self):
        st_ = ZuluState(omega_worked_example(), LAYOUT)
        assert (st_.a(1, 1), st_.b(1, 1)) == (1, 15)
        assert st_.a(2, 2) == 17 + 2 * 16 + 15

    def test_against_formula_evaluator(self):
        st_ = ZuluState(omega_worked_example(), LAYOUT)
        for n in (1, 2, 3):
            a, b = formula_eval("0100", n, LAYOUT)
            assert (st_.a(n, 5), st_.b(n, 5)) == (a, b)

    def test_block_sums(self):
        om = omega_worked_example()
        assert compute_c(om, 1, 1) == 2
        assert compute_c(om, 2, 1) == 8
        assert compute_c(om, 1, 0) == 0


def minimal_bit_reference(state, s, u):
    """Past-horizon membership in build_minimal by interval lookup: u is a
    member iff it is the marker of its interval, if that one is covered."""
    n = state.layout.interval_of(u)
    marks = state.markers(s)
    if n is None or n > len(marks):
        return 0
    return 1 if u == marks[n - 1] else 0


def runs_from_bits(bit_fn, s, lo, hi):
    """The runs of members in [lo, hi] by reading every position."""
    runs = []
    for u in range(lo, hi + 1):
        if bit_fn(s, u):
            if runs and runs[-1][1] == u - 1:
                runs[-1] = (runs[-1][0], u)
            else:
                runs.append((u, u))
    return runs


def maximal_bit_reference(state, s, u):
    """Past-horizon membership in build_maximal by interval lookup: u is a
    member iff its interval is covered and u is not that interval's mirror."""
    n = state.layout.interval_of(u)
    mirrors = state.mirrors(s)
    if n is None or n > len(mirrors):
        return 0
    return 0 if u == mirrors[n - 1] else 1


class TestMinimalMaximal:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_validators(self, seed):
        om = omega_fixture(seed, HZ, top_bit=7)
        state = ZuluState(om, LAYOUT)
        assert validate_left_re(build_minimal(state, HZ)).ok
        assert validate_left_re(build_maximal(state, HZ)).ok

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_exactly_one_per_covered_interval(self, seed):
        om = omega_fixture(seed, HZ, top_bit=7)
        state = ZuluState(om, LAYOUT)
        A = build_minimal(state, HZ)
        B = build_maximal(state, HZ)
        for s in range(1, HZ.stages, 5):
            for n in range(1, min(s, LAYOUT.n_cap) + 1):
                lo, hi = LAYOUT.interval(n)
                if hi - lo > 4000:
                    continue
                assert sum(A.bit(s, u) for u in range(lo, hi + 1)) == 1
                assert sum(1 - B.bit(s, u) for u in range(lo, hi + 1)) == 1

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_btt_link(self, seed):
        om = omega_fixture(seed, HZ, top_bit=7)
        state = ZuluState(om, LAYOUT)
        A = build_minimal(state, HZ)
        B = build_maximal(state, HZ)
        report = btt_check(A, B, LAYOUT)
        assert report.ok, report

    # A passing audit verifies every position of I_1 (17 positions) from
    # stage 1 on, of I_2 (257) from stage 2 on and of I_3 (65,537) from
    # stage 3 on, whatever the seed.
    @pytest.mark.parametrize("seed,checked", [(13, 17 + 274 + 61 * 65811),
                                              (29, 17 + 274 + 61 * 65811)])
    def test_btt_probe_coverage_pinned(self, seed, checked):
        state = _zulu_state(HZ, seed, {"n_cap": 3})
        A = build_minimal(state, HZ)
        B = build_maximal(state, HZ)
        assert btt_check(A, B, state.layout) == BttReport(True, None, checked)

    @pytest.mark.parametrize("seed,checked", [(13, 17 + 274 + 509 * 65811),
                                              (29, 17 + 274 + 509 * 65811)])
    def test_btt_probe_coverage_pinned_512x1024(self, seed, checked):
        _, A, B, layout = zulu_pair(512, 1024, seed)
        assert btt_check(A, B, layout) == BttReport(True, None, checked)

    @pytest.mark.parametrize("seed", [13, 29])
    @pytest.mark.parametrize("n_cap", [1, 2, 3])
    def test_past_horizon_bits_match_interval_lookup(self, seed, n_cap):
        # Windows around every interval boundary, every marker and mirror,
        # and positions past I_{n_cap}, at every stage of a short horizon.
        hz = Horizon(n_cap + 4, 8)
        state = _zulu_state(hz, seed, {"n_cap": n_cap})
        A = build_minimal(state, hz)
        B = build_maximal(state, hz)
        layout = state.layout
        centres = [layout.offset(n) for n in range(1, n_cap + 2)]
        centres.append(layout.offset(n_cap + 1) + 1000)
        for s in range(hz.stages):
            marks = list(state.markers(s)) + list(state.mirrors(s))
            probes = {u for c in centres + marks for u in range(c - 3, c + 4)
                      if u >= 0}
            for u in sorted(probes):
                assert A.bit_fn(s, u) == minimal_bit_reference(state, s, u)
                assert B.bit_fn(s, u) == maximal_bit_reference(state, s, u)
            # runs_fn over the same windows, each window edge moved by up
            # to 3, and over the whole of I_1 and I_2, read against bit_fn.
            windows = [(max(c - d, 0), c + e) for c in centres + marks
                       for d in (0, 1, 3) for e in (0, 1, 3)]
            for lo, hi in windows + [layout.interval(n) for n in (1, 2)]:
                for P in (A, B):
                    assert P.runs_fn(s, lo, hi) == runs_from_bits(
                        P.bit_fn, s, max(lo, hz.bits), hi), (P.label, lo, hi)

    def test_marker_tables_match_markers(self):
        om = omega_fixture(3, HZ, top_bit=7)
        st_ = ZuluState(om, LAYOUT)
        for s in range(0, HZ.stages, 7):
            n_range = range(1, st_.covered(s) + 1)
            assert st_.markers(s) == tuple(st_.a(n, s) for n in n_range)
            assert st_.mirrors(s) == tuple(st_.b(n, s) for n in n_range)

    def test_bit0_entry_rejected(self):
        bad = Schedule.from_pairs([(0, 2)])
        with pytest.raises(InputError):
            ZuluState(bad, LAYOUT)

    def test_repeated_entry_counted_once(self):
        # A history bit entered twice is the same bit: both schedules
        # describe the set {1} from stage 1 on.
        once = ZuluState(Schedule.from_pairs([(1, 1)]), LAYOUT)
        twice = ZuluState(Schedule.from_pairs([(1, 1), (1, 2)]), LAYOUT)
        assert compute_c(twice.omega, 1, 2) == compute_c(once.omega, 1, 2) == 2
        for s in range(6):
            assert twice.markers(s) == once.markers(s)

    def test_static_history_static_markers(self):
        om = Schedule.from_pairs([])
        st_ = ZuluState(om, LAYOUT)
        assert st_.a(1, 1) == st_.a(1, 40)
        # Empty history: d = 0, so the marker sits at the pairing maximum.
        assert st_.a(1, 1) == LAYOUT.pair(1, 0, 3)


def btt_check_reference(A, B, layout, stages=None) -> BttReport:
    """Slow oracle for `btt_check`: at every stage, every position u of every
    covered interval, in order, reads A at u and B at the mirror of u
    through `bit`."""
    if A.horizon != B.horizon:
        raise UsageError("processes must share a horizon")
    if stages is None:
        stages = range(A.horizon.stages)
    checked = 0
    for s in stages:
        for n in range(1, min(s, layout.n_cap) + 1):
            lo, hi = layout.interval(n)
            for u in range(lo, hi + 1):
                checked += 1
                if A.bit(s, u) != 1 - B.bit(s, hi + lo - u):
                    return BttReport(False, (s, u), checked)
    return BttReport(True, None, checked)


@lru_cache(maxsize=None)
def zulu_pair(stages: int, bits: int, seed: int, n_cap: int = 3):
    """The CLI's zulu state for a horizon, seed and layout cap, its minimal
    and maximal sets, and its layout."""
    hz = Horizon(stages, bits)
    state = _zulu_state(hz, seed, {"n_cap": n_cap})
    return state, build_minimal(state, hz), build_maximal(state, hz), state.layout


def flipped(p: ApproxProcess, stage: int, position: int) -> ApproxProcess:
    """`p` with the stage-`stage` bit at `position` (below the horizon)
    inverted; positions past the horizon still go to `p`'s bit_fn and
    runs_fn."""
    mask = Prefix.from_set({position}, p.horizon.bits).value
    return ApproxProcess(
        lambda s: p.prefix(s).value ^ (mask if s == stage else 0),
        p.horizon, p.label, bit_fn=p.bit_fn, runs_fn=p.runs_fn)


def with_past(p: ApproxProcess, bit_fn, runs_fn) -> ApproxProcess:
    """`p`'s stage values with `bit_fn` and `runs_fn` answering past the
    horizon."""
    return ApproxProcess(lambda s: p.prefix(s).value, p.horizon, p.label,
                         bit_fn=bit_fn, runs_fn=runs_fn)


def past_changed_at(p: ApproxProcess, stage: int, bit_fn, runs_fn):
    """`p` whose past-horizon answers at `stage` come from `bit_fn` and
    `runs_fn` (each given `p`'s own answer), and at every other stage are
    `p`'s own."""
    return with_past(
        p, lambda s, u: bit_fn(s, u, p.bit_fn(s, u)) if s == stage
        else p.bit_fn(s, u),
        lambda s, lo, hi: runs_fn(s, lo, hi, p.runs_fn(s, lo, hi))
        if s == stage else p.runs_fn(s, lo, hi))


def outcome(check, *args, **kwargs):
    """The report of a BTT check, or the type and message of its UsageError."""
    try:
        return check(*args, **kwargs)
    except UsageError as e:
        return type(e), str(e)


def around(stage: int) -> list[int]:
    """A stage and its neighbours inside a 64-stage horizon: the exact audit
    must not take a changed stage for a repeat of the one before."""
    return [s for s in (stage - 1, stage, stage + 1) if 0 <= s < 64]


class TestBttAgainstReference:
    """The exact `btt_check` against the per-position oracle.  At 64x128 I_2
    and I_3 straddle the bit horizon; from 300 bits on, I_1 and I_2 lie
    inside it and I_3 straddles it.  The oracle reads every one of I_3's
    65,537 positions per stage, so the checks that cover I_3 run over a few
    stages."""

    @pytest.mark.parametrize("seed", [13, 29])
    @pytest.mark.parametrize("stages,bits", [(64, 128), (64, 300), (512, 1024),
                                             (1024, 2048)])
    def test_same_report_as_reference(self, stages, bits, seed):
        _, A, B, layout = zulu_pair(stages, bits, seed)
        subset = [0, 1, 2, 3, 4, stages // 2, stages - 1]
        report = btt_check(A, B, layout, stages=subset)
        assert report.ok
        assert report == btt_check_reference(A, B, layout, stages=subset)
        # Over every stage, each repeated stage counts what the last checked
        # one verified.
        full = btt_check(A, B, layout)
        assert full.ok and full.checked == sum(
            btt_check(A, B, layout, stages=[s]).checked for s in range(stages))

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([128, 300, 512]), st.sampled_from([13, 29]),
           st.booleans(), st.data())
    def test_one_flipped_bit(self, bits, seed, flip_a, data):
        # Every position below the horizon lies in I_1, I_2 or the part of
        # I_3 inside the horizon.
        _, A, B, layout = zulu_pair(64, bits, seed)
        stage = data.draw(st.integers(0, 63), label="stage")
        position = data.draw(st.integers(0, bits - 1), label="position")
        if flip_a:
            A = flipped(A, stage, position)
        else:
            B = flipped(B, stage, position)
        report = btt_check(A, B, layout, stages=around(stage))
        assert report == btt_check_reference(A, B, layout, stages=around(stage))
        if stage >= layout.ind(position):
            # The flipped position lies in a covered interval.
            u = position if flip_a else layout.mirror(position)
            assert report.witness == (stage, u)
        else:
            assert report.ok

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from([128, 300]), st.sampled_from([13, 29]),
           st.sampled_from([2, 3]),
           st.sampled_from(["clean", "flip A", "flip B", "past A", "past B"]),
           st.data())
    def test_any_stage_list(self, bits, seed, n_cap, mutant, data):
        # Stage lists out of order, with repeats and gaps: an interval is
        # counted unchecked only when its inputs equal those it last passed
        # with, wherever that stage stood in the list.  I_3, covered when
        # n_cap is 3, costs the oracle 65,537 reads per stage, so there the
        # list holds the mutated stage and one neighbour.
        _, A, B, layout = zulu_pair(64, bits, seed, n_cap)
        # The mutated stage and its neighbours cover every interval.
        stage = data.draw(st.integers(n_cap + 1, 62), label="stage")
        side = mutant[-1]
        P = A if side == "A" else B
        if mutant.startswith("flip"):
            position = data.draw(st.integers(0, bits - 1), label="position")
            P = flipped(P, stage, position)
        elif mutant.startswith("past"):
            P = past_changed_at(
                P, stage, lambda s, u, b: b ^ 1,
                lambda s, lo, hi, runs: complement_runs(runs, max(lo, bits),
                                                        hi))
        A, B = (P, B) if side == "A" else (A, P)
        # The mutated stage after one or more others, mostly its
        # neighbours, which usually share its inputs but for the mutation.
        near = st.sampled_from(around(stage))
        others = (st.lists(st.one_of(near, near, near, st.integers(0, 63)),
                           min_size=1, max_size=7) if n_cap == 2
                  else st.lists(near, min_size=1, max_size=1))
        stages = data.draw(others, label="stages")
        stages.insert(data.draw(st.integers(1, len(stages)), label="at"),
                      stage)
        assert btt_check(A, B, layout, stages=stages) == btt_check_reference(
            A, B, layout, stages=stages)

    def test_mirror_at_the_member_found(self):
        # B misses each I_1 marker itself instead of its mirror: unreversed,
        # B's window would be the complement of A's.
        state, A, B, layout = zulu_pair(64, 300, 13)
        swap = {s: Prefix.from_set(set(state.markers(s)[:1])
                                   | set(state.mirrors(s)[:1]), 300).value
                for s in range(64)}
        bad_b = ApproxProcess(lambda s: B.prefix(s).value ^ swap[s],
                              B.horizon, "swapped", bit_fn=B.bit_fn,
                              runs_fn=B.runs_fn)
        report = btt_check(A, bad_b, layout)
        assert report == btt_check_reference(A, bad_b, layout)
        assert not report.ok and report.witness[0] == 1

    @pytest.mark.parametrize("bits", [128, 300])
    @pytest.mark.parametrize("stage", [1, 2, 3, 40])
    def test_past_horizon_answers_inverted_at_one_stage(self, stage, bits):
        # At 64x128 I_2 and I_3 reach past the horizon, at 64x300 only I_3,
        # which is covered from stage 3 on.  I_2 is read through bit_fn, I_3
        # through runs_fn.
        _, A, B, layout = zulu_pair(64, bits, 13)
        bad_b = past_changed_at(
            B, stage, lambda s, u, b: b ^ 1,
            lambda s, lo, hi, runs: complement_runs(runs, max(lo, bits), hi))
        report = btt_check(A, bad_b, layout, stages=around(stage))
        assert report == btt_check_reference(A, bad_b, layout,
                                             stages=around(stage))
        if stage >= 3 or (stage == 2 and bits == 128):
            assert not report.ok and report.witness[0] == stage
        else:
            assert report.ok

    @pytest.mark.parametrize("bits", [128, 300])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_past_horizon_answer_neither_0_nor_1(self, side, bits):
        # At 64x128 the I_2 probes read a bit_fn answer of 2 and fail.  At
        # 64x300 only I_3 reaches past the horizon, read through runs_fn,
        # whose answer at stage 9 is not a list of runs inside the range.
        _, A, B, layout = zulu_pair(64, bits, 29)
        P = A if side == "A" else B
        if bits == 128:
            bad = past_changed_at(P, 9, lambda s, u, b: 2,
                                  lambda s, lo, hi, runs: runs)
        else:
            bad = past_changed_at(P, 9, lambda s, u, b: b,
                                  lambda s, lo, hi, runs: [*runs, (hi + 1,
                                                                   hi + 1)])
        A, B = (bad, B) if side == "A" else (A, bad)
        if bits == 300:
            with pytest.raises(UsageError, match=(
                    f"process {P.label!r}: stage 9 answers .* not an "
                    f"ascending maximal run inside \\[300, 65810\\]")):
                btt_check(A, B, layout)
            return
        report = btt_check(A, B, layout, stages=around(9))
        assert report == btt_check_reference(A, B, layout, stages=around(9))
        assert not report.ok and report.witness[0] == 9

    @pytest.mark.parametrize("strip,label", [
        ("AB", "maximal"), ("A", "minimal"), ("B", "maximal")])
    def test_no_bit_fn_past_the_horizon(self, strip, label):
        # At 64x128 the I_2 scan reads B past the horizon at the first
        # mirror (273), and A from position 128 on.
        _, A, B, layout = zulu_pair(64, 128, 13)
        if "A" in strip:
            A = with_past(A, None, None)
        if "B" in strip:
            B = with_past(B, None, None)
        got = outcome(btt_check, A, B, layout)
        assert got == outcome(btt_check_reference, A, B, layout)
        assert got[0] is UsageError
        assert got[1].startswith(f"process {label!r} has no bits past the "
                                 "horizon of 128")

    @pytest.mark.parametrize("strip,label", [
        ("AB", "minimal"), ("A", "minimal"), ("B", "maximal")])
    def test_no_runs_fn_past_the_horizon(self, strip, label):
        # At 64x300 only I_3 reaches past the horizon, from stage 3 on; A's
        # runs are asked for first.
        _, A, B, layout = zulu_pair(64, 300, 13)
        if "A" in strip:
            A = with_past(A, A.bit_fn, None)
        if "B" in strip:
            B = with_past(B, B.bit_fn, None)
        with pytest.raises(UsageError) as err:
            btt_check(A, B, layout)
        assert str(err.value) == (f"process {label!r} has no bits past the "
                                  "horizon of 300, read at 300..65810")

    @pytest.mark.parametrize("bits", [8, 128, 300])
    def test_stage_outside_the_horizon(self, bits):
        _, A, B, layout = zulu_pair(64, bits, 13)
        got = outcome(btt_check, A, B, layout, stages=[5, 64])
        assert got == outcome(btt_check_reference, A, B, layout,
                              stages=[5, 64])
        assert got == (UsageError, "stage 64 outside horizon of 64")

    def test_in_horizon_intervals_read_no_single_bits(self):
        # At 64x300 I_1 and I_2 lie inside the horizon and runs decide
        # every interval, so no position is read one bit at a time.
        _, A, B, layout = zulu_pair(64, 300, 13)
        read = []

        def spy(p):
            q = with_past(p, lambda s, u: read.append(u) or p.bit_fn(s, u),
                          p.runs_fn)
            q.bit = lambda s, u: read.append(u) or ApproxProcess.bit(q, s, u)
            return q

        assert btt_check(spy(A), spy(B), layout).ok
        assert not read

    def test_wrong_member_deep_inside_i3(self):
        # An extra member of A deep inside I_3 at stage 40, past the 300-bit
        # horizon: the link fails at u and only there, so only an audit that
        # covers every position of I_3 finds it.
        state, A, B, layout = zulu_pair(64, 300, 13)
        lo, hi = layout.interval(3)
        u = lo + 40000
        assert u not in state.markers(40)
        bad_a = past_changed_at(
            A, 40, lambda s, v, a: 1 if v == u else a,
            lambda s, lo_, hi_, runs: sorted([*runs, (u, u)])
            if max(lo_, 300) <= u <= hi_ else runs)
        report = btt_check(bad_a, B, layout, stages=around(40))
        assert report.witness == (40, u)
        assert report == btt_check_reference(bad_a, B, layout,
                                             stages=around(40))
        assert btt_check(bad_a, B, layout) == BttReport(
            False, (40, u), 17 + 274 + 37 * 65811 + 274 + u - lo + 1)


class TestMaxsep:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10 ** 6))
    def test_random_schedules(self, seed):
        A = one_per_stage_schedule(seed, HZ)
        E = maxsep_superset(A, HZ)
        assert validate_left_re(E).ok
        final_a = A.final_members()
        final_e = E.final_prefix().members()
        assert final_a < final_e
        comp = [x for x in range(HZ.bits) if x not in final_a]
        for rank, x in enumerate(comp):
            assert (x in final_e) == (rank % 2 == 1)

    def test_singleton_example(self):
        A = Schedule.from_pairs([(0, 0)])
        E = maxsep_superset(A, HZ)
        members = E.final_prefix().members()
        assert 0 in members
        assert all((x in members) == (x % 2 == 0) for x in range(HZ.bits))

    def test_two_in_one_stage_rejected(self):
        with pytest.raises(InputError):
            maxsep_superset(Schedule.from_pairs([(1, 0), (2, 0), (3, 1)]), HZ)

    def test_gap_stage_rejected(self):
        with pytest.raises(InputError):
            maxsep_superset(Schedule.from_pairs([(1, 0), (2, 2)]), HZ)


def odd_process(seed):
    half = one_per_stage_schedule(seed, Horizon(HZ.stages, HZ.bits // 2))
    return Schedule.from_pairs(
        [(2 * x + 1, s) for x, s in half.entries]).as_process(HZ)


class TestSplit:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_alternation(self, seed):
        A = odd_process(seed)
        E = split_subset(A)
        assert validate_left_re(E).ok
        members = sorted(A.final_prefix().members())
        final_e = E.final_prefix().members()
        for k, m in enumerate(members):
            assert (m in final_e) == (k % 2 == 0)
            assert (m - 1 in final_e) == (k % 2 == 1)

    def test_even_member_rejected(self):
        A = Schedule.from_pairs([(2, 0)]).as_process(HZ)
        with pytest.raises(InputError):
            split_subset(A)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_superset_dual(self, seed):
        # Starts as the evens and absorbs odd elements one at a time, so the
        # all-odd complement shrinks and the process is lex-monotone.
        half = one_per_stage_schedule(seed, Horizon(HZ.stages, HZ.bits // 2))
        N = HZ.bits
        evens = Prefix.from_set(range(0, N, 2), N).value
        odd_sched = Schedule.from_pairs([(2 * x + 1, s) for x, s in half.entries])
        from leftre.core import ApproxProcess
        B = ApproxProcess(
            lambda s: evens | Prefix.from_set(odd_sched.members_at(s), N).value,
            HZ, "dual")
        F = split_superset(B)
        assert validate_left_re(F).ok
        non = [n for n in range(N) if n not in B.final_prefix().members()]
        f_final = F.final_prefix().members()
        for k, m in enumerate(non):
            assert (m not in f_final) == (k % 2 == 0)
            assert (m - 1 not in f_final) == (k % 2 == 1)


class TestLowerfarm:
    def test_window_witness(self):
        B = random_leftre_process(2, HZ, head_zeros=8)
        R = frozenset({0, 2, 4})
        E = lowerfarm_witness(B, R)
        assert validate_left_re(E).ok
        assert R <= E.final_prefix().members()

    def test_fixed_position_past_horizon_rejected(self):
        B = random_leftre_process(2, HZ, head_zeros=8)
        with pytest.raises(CapacityError, match="needs 129 bits"):
            lowerfarm_witness(B, frozenset({0, HZ.bits}))

    def test_overlapping_fixed_set_rejected(self):
        B = random_leftre_process(2, HZ, head_zeros=8)
        member = min(B.final_prefix().members())
        with pytest.raises(InputError):
            lowerfarm_witness(B, frozenset({member}))


class TestTilde:
    def test_validator_and_coding(self):
        om = omega_fixture(3, HZ, top_bit=7)
        A = build_minimal(ZuluState(om, LAYOUT), HZ)
        W = Schedule.from_pairs([(1, 2)])
        T = tilde_set(A, W, LAYOUT)
        assert validate_left_re(T).ok
        s = HZ.stages - 1
        st_ = ZuluState(om, LAYOUT)
        a1 = st_.a(1, s)
        # Interval 1 is enumerated: member contributes its 3x leg only.
        assert T.bit(s, 3 * a1) == 1
        assert T.bit(s, 3 * a1 + 1) == 0
        a2 = st_.a(2, s)
        # Interval 2 is not: the complementary legs appear instead.
        assert T.bit(s, 3 * a2) == 0
        assert T.bit(s, 3 * a2 + 1) == 1

    @pytest.mark.parametrize("subset_form", [False, True])
    def test_w_entry_between_changes_of_a(self, subset_form):
        # W's entry lands at a stage where A keeps its value, and moves the
        # legs of A's I_1 member there; bit_fn decides each position afresh.
        om = omega_fixture(3, HZ, top_bit=7)
        A = build_minimal(ZuluState(om, LAYOUT), HZ)
        quiet = [s for s in range(4, HZ.stages) if s not in A.changes]
        stage = quiet[len(quiet) // 2]
        T = tilde_set(A, Schedule.from_pairs([(1, stage)]), LAYOUT, subset_form)
        assert stage in T.changes
        for s in range(HZ.stages):
            assert T.prefix(s).value == Prefix.from_set(
                (y for y in range(HZ.bits) if T.bit_fn(s, y)), HZ.bits).value

    def test_subset_form_drops_third_leg(self):
        om = omega_fixture(3, HZ, top_bit=7)
        A = build_minimal(ZuluState(om, LAYOUT), HZ)
        T = tilde_set(A, Schedule.from_pairs([]), LAYOUT, subset_form=True)
        s = HZ.stages - 1
        a1 = ZuluState(om, LAYOUT).a(1, s)
        assert T.bit(s, 3 * a1 + 2) == 0


class TestJoinGadget:
    def test_interleaving(self):
        om = omega_fixture(3, HZ, top_bit=7)
        B = build_maximal(ZuluState(om, LAYOUT), HZ)
        W = Schedule.from_pairs([(2, 1), (5, 3)])
        J = max_join_gadget(B, W)
        assert validate_left_re(J).ok
        s = HZ.stages - 1
        assert J.bit(s, 2 * 2 + 1) == 1 and J.bit(s, 2 * 3 + 1) == 0
        assert J.bit(s, 4) == B.bit(s, 2)

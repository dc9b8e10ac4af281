import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (EQUAL, GREATER, LESS, STABILITY_WINDOW,
                         ApproxProcess, Horizon, Numbering, Prefix, Schedule,
                         UsageError, ValidationReport, change_stages,
                         complement_runs, first_difference, first_mismatch,
                         join, lex_cmp, limit_estimate, mirror_mismatch,
                         stage_runs, validate_left_re,
                         validate_monotone_membership)

HZ = Horizon(16, 24)


def bits_of(p: Prefix) -> list[int]:
    return [p.bit(n) for n in range(p.length)]


class TestPrefix:
    def test_roundtrip_string(self):
        p = Prefix.from_string("10110")
        assert p.to_string() == "10110"
        assert p.members() == {0, 2, 3}

    def test_position_zero_is_most_significant(self):
        p = Prefix.from_string("100")
        assert p.value == 4
        assert p.bit(0) == 1 and p.bit(2) == 0

    def test_padded_truncated(self):
        p = Prefix.from_string("101")
        assert p.padded(5).to_string() == "10100"
        assert p.padded(5).truncated(3) == p
        with pytest.raises(UsageError):
            p.truncated(4)

    def test_subset(self):
        a = Prefix.from_string("0101")
        b = Prefix.from_string("0111")
        assert a.is_subset_of(b) and not b.is_subset_of(a)


class TestLexOrder:
    def test_one_at_least_difference_wins(self):
        assert lex_cmp(Prefix.from_string("0111"), Prefix.from_string("1000")) == LESS

    @given(st.integers(1, 30), st.data())
    def test_agrees_with_string_compare(self, length, data):
        # Independent oracle: lex order on 0/1 strings is plain string order.
        a = data.draw(st.integers(0, (1 << length) - 1))
        b = data.draw(st.integers(0, (1 << length) - 1))
        pa, pb = Prefix(length, a), Prefix(length, b)
        sa, sb = pa.to_string(), pb.to_string()
        expected = LESS if sa < sb else GREATER if sa > sb else EQUAL
        assert lex_cmp(pa, pb) == expected

    @given(st.integers(1, 30), st.data())
    def test_first_difference_oracle(self, length, data):
        a = data.draw(st.integers(0, (1 << length) - 1))
        b = data.draw(st.integers(0, (1 << length) - 1))
        pa, pb = Prefix(length, a), Prefix(length, b)
        naive = next((n for n in range(length) if pa.bit(n) != pb.bit(n)), None)
        assert first_difference(pa, pb) == naive

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            lex_cmp(Prefix.from_string("1"), Prefix.from_string("10"))


def staged(values):
    """The process showing values[s] at stage s, then the last one."""
    return ApproxProcess(lambda s: values[min(s, len(values) - 1)], HZ)


class TestValidators:
    def test_monotone_passes(self):
        assert validate_left_re(staged([0, 5, 5, 9, 100])).ok

    def test_decrease_caught_with_position(self):
        p = staged([0, 8, 4])
        r = validate_left_re(p)
        assert not r.ok and r.stage == 1
        assert r.position == first_difference(Prefix(HZ.bits, 8), Prefix(HZ.bits, 4))

    @pytest.mark.parametrize("s", [-1, HZ.stages])
    def test_stage_outside_horizon_raises(self, s):
        p = staged([0, 5])
        with pytest.raises(UsageError):
            p.prefix(s)
        with pytest.raises(UsageError):
            p.bit(s, 0)

    def test_bit_past_horizon_without_bit_fn_raises(self):
        p = staged([0, 5])
        assert p.bit(1, HZ.bits - 1) == 1
        with pytest.raises(UsageError, match="past the horizon"):
            p.bit(1, HZ.bits)

    @pytest.mark.parametrize("value", [-1, 1 << HZ.bits],
                             ids=["negative", "too-wide"])
    def test_out_of_range_stage_value_raises(self, value):
        with pytest.raises(UsageError, match="stage 3"):
            ApproxProcess(lambda s: value if s == 3 else 0, HZ, "bad")

    def test_membership_direction(self):
        up = staged([0, 1, 3])
        assert validate_monotone_membership(up, "up").ok
        # A lex increase that drops a member is fine for left-r.e. but not
        # for the subset discipline.
        mixed = staged([1, 2])
        assert validate_left_re(mixed).ok
        assert not validate_monotone_membership(mixed, "up").ok
        assert not validate_monotone_membership(mixed, "down").ok


class TestSchedule:
    def test_members_accumulate(self):
        W = Schedule.from_pairs([(3, 1), (5, 4)])
        assert W.members_at(0) == frozenset()
        assert W.members_at(1) == {3}
        assert W.final_members() == {3, 5}

    def test_as_process_valid(self):
        W = Schedule.from_pairs([(2, 3), (0, 5), (7, 1)])
        p = W.as_process(HZ)
        assert validate_left_re(p).ok
        assert validate_monotone_membership(p, "up").ok


class TestJoin:
    def test_interleaves(self):
        e = staged([Prefix.from_set({0, 2}, HZ.bits).value])
        f = staged([Prefix.from_set({1}, HZ.bits).value])
        j = join(e, f)
        assert j.final_prefix().members() == {0, 4, 3}


class TestLimitEstimate:
    def test_stable_flag(self):
        final, stable = limit_estimate(staged([0, 7]))
        assert final.value == 7 and stable

    def test_unstable_flag(self):
        _, stable = limit_estimate(ApproxProcess(lambda s: s, HZ))
        assert not stable


class TestNumbering:
    def test_horizon_mismatch(self):
        with pytest.raises(UsageError):
            Numbering([staged([0]),
                       ApproxProcess(lambda s: 0, Horizon(8, 8))])

    def test_validate_all(self):
        nu = Numbering([staged([0, 3]), staged([1, 1, 9])])
        assert all(r.ok for r in nu.validate())


def validate_left_re_reference(p):
    """Slow oracle for validate_left_re: every pair of adjacent stages."""
    prev = p.prefix(0)
    for s in range(1, p.horizon.stages):
        cur = p.prefix(s)
        if lex_cmp(prev, cur) == GREATER:
            pos = first_difference(prev, cur)
            return ValidationReport(False, s - 1, pos,
                                    f"prefix at stage {s - 1} lex-exceeds stage {s}")
        prev = cur
    return ValidationReport(True)


def validate_monotone_membership_reference(p, direction):
    """Slow oracle for validate_monotone_membership: every pair of adjacent
    stages."""
    prev = p.prefix(0)
    for s in range(1, p.horizon.stages):
        cur = p.prefix(s)
        bad = prev.value & ~cur.value if direction == "up" else cur.value & ~prev.value
        if bad:
            pos = p.horizon.bits - bad.bit_length()
            return ValidationReport(False, s - 1, pos,
                                    f"membership at {pos} moved the wrong way at stage {s}")
        prev = cur
    return ValidationReport(True)


def limit_estimate_reference(p):
    """Slow oracle for limit_estimate: re-reads the trailing window."""
    S = p.horizon.stages
    final = p.prefix(S - 1)
    window = min(STABILITY_WINDOW, S - 1)
    stable = all(p.prefix(S - 1 - k).value == final.value
                 for k in range(1, window + 1))
    return final, stable


@st.composite
def stage_values(draw, bits):
    """Stage values in runs of repeats, as drawn, sorted (left-r.e.), or made
    nested upward or downward, over 1 to 20 stages."""
    runs = draw(st.lists(st.tuples(st.integers(0, (1 << bits) - 1),
                                   st.integers(1, 4)), min_size=1, max_size=8))
    values = [v for v, k in runs for _ in range(k)][:20]
    shape = draw(st.sampled_from(["drawn", "sorted", "up", "down"]))
    if shape == "sorted":
        values.sort()
    elif shape in ("up", "down"):
        acc = values[0]
        for s, v in enumerate(values):
            acc = acc | v if shape == "up" else acc & v
            values[s] = acc
    return values


class TestChanges:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6), st.data())
    def test_per_stage_references_agree(self, bits, data):
        values = data.draw(stage_values(bits))
        p = ApproxProcess(values.__getitem__, Horizon(len(values), bits))
        assert list(p.changes) == [s for s in range(1, len(values))
                                   if values[s] != values[s - 1]]
        assert validate_left_re(p) == validate_left_re_reference(p)
        for direction in ("up", "down"):
            assert validate_monotone_membership(p, direction) == \
                validate_monotone_membership_reference(p, direction)
        assert limit_estimate(p) == limit_estimate_reference(p)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 20), st.data())
    def test_change_stages_is_stage_0_and_every_change(self, S, data):
        hz = Horizon(S, 4)
        rows = data.draw(st.lists(st.lists(st.integers(0, 15), min_size=S,
                                           max_size=S), max_size=4))
        processes = [ApproxProcess(row.__getitem__, hz) for row in rows]
        assert change_stages(processes) == {0} | {
            s for row in rows for s in range(1, S) if row[s] != row[s - 1]}

    def test_single_stage_horizon(self):
        p = ApproxProcess(lambda s: 5, Horizon(1, 4))
        assert p.changes == ()
        assert change_stages([p]) == {0}
        assert limit_estimate(p) == (Prefix(4, 5), True)

    def test_stable_iff_the_last_change_precedes_the_window(self):
        S = HZ.stages
        for t in range(1, S):
            p = ApproxProcess(lambda s: int(s >= t), HZ)
            assert p.changes == (t,)
            assert limit_estimate(p)[1] == (t < S - STABILITY_WINDOW)


def set_of_runs(runs) -> set[int]:
    return {u for a, b in runs for u in range(a, b + 1)}


def runs_of_set(members, lo, hi):
    """Ascending maximal runs of a set inside [lo, hi], position by position."""
    runs = []
    for u in range(lo, hi + 1):
        if u in members:
            if runs and runs[-1][1] == u - 1:
                runs[-1] = (runs[-1][0], u)
            else:
                runs.append((u, u))
    return runs


@st.composite
def window_sets(draw):
    """A window [lo, hi] and two member sets inside it."""
    lo = draw(st.integers(0, 20))
    hi = lo + draw(st.integers(0, 40))
    members = st.sets(st.integers(lo, hi))
    return lo, hi, draw(members), draw(members)


class TestRuns:
    """The run helpers against position-by-position oracles."""

    @settings(max_examples=200)
    @given(window_sets(), st.integers(1, 64))
    def test_stage_runs(self, case, length):
        lo, hi, members, past = case
        below = {u for u in members if u < length}
        p = Prefix.from_set(below, length)
        past_runs = runs_of_set({u for u in past if u >= length}, lo, hi)
        got = stage_runs(p, lo, hi, past_runs)
        assert got == runs_of_set(
            below | {u for u in past if u >= length}, lo, hi)

    @settings(max_examples=200)
    @given(window_sets())
    def test_complement_and_mismatch(self, case):
        lo, hi, a, b = case
        x, y = runs_of_set(a, lo, hi), runs_of_set(b, lo, hi)
        assert complement_runs(x, lo, hi) == runs_of_set(
            set(range(lo, hi + 1)) - a, lo, hi)
        assert first_mismatch(x, y) == min(a ^ b, default=None)
        link = {u for u in range(lo, hi + 1) if (u in a) == (hi + lo - u in b)}
        assert mirror_mismatch(x, y, lo, hi) == min(link, default=None)

    def test_window(self):
        p = Prefix.from_string("0110100")
        assert p.window(1, 4) == 0b1101
        assert p.window(6, 6) == 0
        for lo, hi in [(-1, 2), (3, 2), (0, 7)]:
            with pytest.raises(UsageError):
                p.window(lo, hi)

    def test_past_runs_checks_its_answer(self):
        answers = {0: [(10, 12), (15, 15)], 1: [(10, 12), (13, 15)],
                   2: [(12, 14), (10, 11)], 3: [(7, 9)], 4: [(20, 21)],
                   5: [(12, 11)]}
        p = ApproxProcess(lambda s: 0, Horizon(6, 8), "p",
                          runs_fn=lambda s, lo, hi: answers[s])
        assert p.past_runs(0, 3, 20) == [(10, 12), (15, 15)]
        assert p.past_runs(0, 3, 7) == []  # wholly below the horizon
        for s in range(1, 6):  # adjacent, unordered, below 8, past 20, empty
            with pytest.raises(UsageError, match=f"'p': stage {s} answers"):
                p.past_runs(s, 3, 20)
        with pytest.raises(UsageError, match="stage 6 outside horizon of 6"):
            p.past_runs(6, 3, 20)
        bare = ApproxProcess(lambda s: 0, Horizon(6, 8), "bare")
        with pytest.raises(UsageError, match="'bare' has no bits past the "
                           "horizon of 8, read at 8..20"):
            bare.past_runs(0, 3, 20)

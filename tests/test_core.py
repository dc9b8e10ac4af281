import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (EQUAL, GREATER, LESS, STABILITY_WINDOW,
                         ApproxProcess, Horizon, Numbering, Prefix, Schedule,
                         UsageError, ValidationReport, change_stages,
                         first_difference, join, lex_cmp, limit_estimate,
                         validate_left_re, validate_monotone_membership)

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

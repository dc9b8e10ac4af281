import pytest
from hypothesis import given, strategies as st

from leftre.core import (EQUAL, GREATER, LESS, ApproxProcess, Horizon,
                         InputError, LimitFunctionApprox, Numbering, Prefix,
                         Schedule, UsageError, first_difference, join,
                         lex_cmp, limit_estimate, process_from_stage_prefixes,
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

    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_from_bits_roundtrip(self, bits):
        assert list(Prefix.from_bits(bits).bits()) == bits

    def test_padded_truncated(self):
        p = Prefix.from_string("101")
        assert p.padded(5).to_string() == "10100"
        assert p.padded(5).truncated(3) == p
        with pytest.raises(UsageError):
            p.truncated(4)

    def test_concat(self):
        assert Prefix.from_string("10").concat(
            Prefix.from_string("01")).to_string() == "1001"

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
    return process_from_stage_prefixes(
        [Prefix(HZ.bits, v) for v in values] + [Prefix(HZ.bits, values[-1])]
        * (HZ.stages - len(values)), HZ)


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

    def test_json_roundtrip(self, tmp_path):
        W = Schedule.from_pairs([(1, 2), (4, 0)], "k-set")
        path = tmp_path / "w.json"
        W.save(path)
        assert Schedule.load(path) == W

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            Schedule.from_pairs([], "mystery")


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
        values = list(range(HZ.stages))
        p = process_from_stage_prefixes([Prefix(HZ.bits, v) for v in values], HZ)
        _, stable = limit_estimate(p)
        assert not stable


class TestLimitFunctionApprox:
    def test_from_final_values_stage_bound(self):
        f = LimitFunctionApprox.from_final_values([5, 6], 16)
        assert f.value(0, 0) == 0
        assert f.value(5, 0) == 0 and f.value(6, 0) == 5
        assert f.final(1) == 6
        assert all(f.value(s, n) < s for s in range(1, 16) for n in range(2))

    def test_from_changes(self):
        f = LimitFunctionApprox.from_changes([0, 0], [(3, 1, 4), (5, 0, 2)], 10)
        assert f.value(2, 1) == 0 and f.value(3, 1) == 4
        assert f.final(0) == 2

    def test_changes_beyond_horizon_rejected(self):
        with pytest.raises(InputError):
            LimitFunctionApprox.from_changes([0], [(12, 0, 1)], 10)


class TestNumbering:
    def test_horizon_mismatch(self):
        with pytest.raises(UsageError):
            Numbering([staged([0]),
                       ApproxProcess(lambda s: 0, Horizon(8, 8))])

    def test_validate_all(self):
        nu = Numbering([staged([0, 3]), staged([1, 1, 9])])
        assert all(r.ok for r in nu.validate())

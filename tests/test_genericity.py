from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import CapacityError, Horizon, Prefix, UsageError
from leftre.fixtures import requirement_fixture
from leftre.genericity import (RequirementList, build_generic_plan,
                               force_generic_prefix, interval_function_values,
                               intervals_from_values, least_satisfying_end,
                               prefix_meets_requirement, verify_indifference)

HZ = Horizon(64, 128)


class TestSatisfaction:
    def test_enumerated_prefix_satisfies(self):
        assert prefix_meets_requirement(Prefix.from_string("1011"),
                                        frozenset({"10"}), 8)

    def test_unextended_string_satisfies_vacuously(self):
        assert prefix_meets_requirement(Prefix.from_string("11"),
                                        frozenset({"00"}), 8)

    def test_proper_extension_blocks(self):
        assert not prefix_meets_requirement(Prefix.from_string("11"),
                                            frozenset({"110"}), 8)

    def test_set_level_needs_proper_length_witness(self):
        # A full-length prefix is vacuously unextendable; the set-level check
        # must not accept that as a witness.
        strings = frozenset({"0001", "0011", "0101", "0111",
                             "1001", "1011", "1101", "1111"})
        assert not prefix_meets_requirement(Prefix.from_string("0001"), strings, 4)


class TestForcing:
    def test_least_extension_chosen(self):
        Ws = RequirementList.from_strings([["11", "01"], ["010"]])
        forced = force_generic_prefix(Ws, 8)
        # "01" beats "11" lexicographically at equal length; then "010"
        # extends it.
        assert forced.to_string().startswith("010")

    def test_forced_satisfies_all(self):
        Ws = requirement_fixture()
        forced = force_generic_prefix(Ws, 14)
        for e in range(Ws.count):
            assert prefix_meets_requirement(forced, Ws.strings_at(e), 14)

    def test_non_binary_string_rejected(self):
        with pytest.raises(UsageError, match="binary"):
            RequirementList.from_strings([["01", "2"]])

    def test_string_longer_than_horizon_rejected(self):
        from leftre.core import InputError
        with pytest.raises(InputError):
            force_generic_prefix(RequirementList.from_strings(
                [[format(v, "06b") for v in range(1 << 6)]]), 4)


def interval_function_values_reference(A, Ws, levels):
    """Slow oracle for interval_function_values: every string up to the
    bound's length, for every requirement index up to the bound, no memo."""
    f = [0]
    for _ in range(levels):
        bound = f[-1]
        worst = max((least_satisfying_end("".join(sigma), A, Ws.strings_at(e),
                                          A.length)
                     for e in range(min(bound + 1, Ws.count))
                     for length in range(bound + 1)
                     for sigma in product("01", repeat=length)), default=0)
        if max(bound + 1, worst) >= A.length:
            raise CapacityError("past the bit horizon")
        f.append(max(bound + 1, worst))
    return f


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapacityError:
        return "capacity"


class TestIntervalFunction:
    def test_short_sigma_settled_two_past_the_bound(self):
        # At bound 1, sigma "0" followed by A's 0 at position 1 is settled
        # only when "0000" is complete, at 3, two past the bound: a search
        # that skipped sigmas of length 1 would give f(2) = 2.
        A = Prefix.from_string("10000000")
        Ws = RequirementList.from_strings([["0000"]])
        assert interval_function_values(A, Ws, 2) == [0, 1, 3] == \
            interval_function_values_reference(A, Ws, 2)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(2, 10), st.data())
    def test_matches_full_enumeration(self, bits, data):
        # Strings up to two past a small bit horizon, so some requirements
        # are settled only vacuously and some strings are never reached.
        strings = st.text("01", min_size=1, max_size=min(bits + 2, 7))
        Ws = RequirementList.from_strings(data.draw(st.lists(
            st.lists(strings, max_size=4), max_size=3)))
        A = Prefix(bits, data.draw(st.integers(0, (1 << bits) - 1)))
        levels = data.draw(st.integers(0, 8))
        assert outcome(interval_function_values, A, Ws, levels) == \
            outcome(interval_function_values_reference, A, Ws, levels)

    def test_minimal_growth_without_requirements(self):
        A = Prefix.zeros(16)
        f = interval_function_values(A, RequirementList(()), 5)
        assert f == [0, 1, 2, 3, 4, 5]

    def test_strictly_increasing(self):
        A = force_generic_prefix(requirement_fixture(), 14)
        f = interval_function_values(A, requirement_fixture(), 6)
        assert all(b > a for a, b in zip(f, f[1:]))

    def test_segment_end_oracle(self):
        # Independent recomputation of one cached entry.
        Ws = requirement_fixture()
        A = force_generic_prefix(Ws, 14)
        strings = Ws.strings_at(1)
        c = least_satisfying_end("1", A, strings, 14)
        a = A.to_string()
        for c1 in range(1, c):
            tau = "1" + a[1:c1 + 1]
            assert any(w.startswith(tau) and len(w) > len(tau)
                       for w in strings) or not any(
                           tau[:k] in strings for k in range(len(tau) + 1))

    def test_capacity_error_when_horizon_too_small(self):
        A = Prefix.zeros(4)
        with pytest.raises(CapacityError):
            interval_function_values(A, RequirementList(()), 6)

    def test_intervals_partition(self):
        f = [0, 2, 5, 9]
        J = intervals_from_values(f)
        assert [list(r) for r in J] == [[1, 2], [3, 4, 5], [6, 7, 8, 9]]


class TestPlan:
    def test_pipeline_marker_free_intervals(self):
        plan = build_generic_plan(requirement_fixture(), 14, 6, HZ)
        free = plan.marker_free_intervals(6)
        for n in range(1, 4):
            assert sum(1 for k in free if k < 2 * n) >= n

    def test_markers_dominate_doubled_values(self):
        plan = build_generic_plan(requirement_fixture(), 14, 6, HZ)
        finals = plan.markers.final_markers(4)
        for n in range(4):
            assert finals[n] > plan.f_values[2 * n]


class TestIndifference:
    def test_fixture_passes_exhaustively(self):
        plan = build_generic_plan(requirement_fixture(), 14, 6, HZ)
        report = verify_indifference(plan.A, plan.markers,
                                     plan.Ws, plan.Ws.count - 1)
        assert report.ok
        assert report.variants_checked == 1 << len(report.positions)

    def test_adversarial_requirement_fails(self):
        plan = build_generic_plan(requirement_fixture(), 14, 6, HZ)
        # Enumerate every full-length string starting with 1: prefixes of
        # such a string are always blocked by an extension, so the variant
        # flipping bit 0 to 1 has no witness and the checker must say so.
        hostile = RequirementList.from_strings(
            [["1" + format(v, "07b") for v in range(128)]])
        report = verify_indifference(Prefix.from_string("01111111"),
                                     plan.markers, hostile, 0,
                                     positions=[0])
        assert not report.ok and report.failures

    def test_cap_enforced(self):
        plan = build_generic_plan(requirement_fixture(), 14, 6, HZ)
        with pytest.raises(CapacityError):
            verify_indifference(plan.A, plan.markers, plan.Ws, 0,
                                cap=2, positions=list(range(5)))

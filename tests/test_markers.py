import pytest
from hypothesis import example, given, strategies as st

from leftre.core import Horizon, InputError, validate_monotone_membership
from leftre.markers import MarkerSystem, build_retraceable, count_h, retrace
from leftre.fixtures import marker_fixture, settle_plus5

HZ = Horizon(64, 128)


def naive_markers(values: list[int], stages: int) -> tuple[list[int], dict[int, int]]:
    """Independent oracle: replay the construction stage by stage on an
    explicit list of live positions, scanning every argument of the stage
    approximation `v if v < s else 0`.  Returns the final live positions and
    the removal stage of every removed position."""

    def approx(s: int, n: int) -> int:
        return values[n] if values[n] < s else 0

    # Only positions below the last stage are ever removed, so this list
    # always holds a live position for every argument.
    live = list(range(stages + len(values)))
    removal = {}
    for s1 in range(1, stages):
        n = next((k for k in range(len(values))
                  if approx(s1 - 1, k) != approx(s1, k)), None)
        if n is None:
            continue
        old = live[n]
        removal.update((p, s1) for p in live if old <= p < s1)
        live = [p for p in live if p < old or p >= s1]
    return live, removal


class TestConstruction:
    def test_matches_naive_replay(self):
        values = settle_plus5()
        m = build_retraceable(values, HZ)
        live, removal = naive_markers(values, HZ.stages)
        assert m.final_markers(20) == live[:20]
        assert m.removal_stage == removal

    # 0s, repeated values, values at or past the last stage, one stage.
    @example([0, 0, 3, 3, 1], 6)
    @example([5, 6, 7], 7)
    @example([2, 1], 1)
    @given(st.lists(st.integers(0, 45), max_size=25), st.integers(1, 40))
    def test_removal_stages_match_naive_replay(self, values, stages):
        m = build_retraceable(values, Horizon(stages, 8))
        assert m.removal_stage == naive_markers(values, stages)[1]

    def test_markers_dominate_settled_values(self):
        m = marker_fixture(HZ)
        finals = m.final_markers(20)
        for n in range(20):
            assert finals[n] > n + 5

    def test_markers_only_move_upward(self):
        m = build_retraceable(settle_plus5(), HZ)
        for k in range(8):
            positions = [m.marker(k, s) for s in range(HZ.stages)]
            assert positions == sorted(positions)

    def test_stage_zero_must_be_zero(self):
        # The stage-0 approximation is identically 0, so settled 0s never
        # show a change and move no marker.
        assert build_retraceable([0, 0, 0], HZ).removal_stage == {}

    def test_stage_bound_enforced(self):
        # A value v shows only once the stage exceeds it, at stage v + 1.
        m = build_retraceable([9, 4], HZ)
        assert sorted(set(m.removal_stage.values())) == [5, 10]

    def test_negative_value_rejected(self):
        with pytest.raises(InputError, match="negative"):
            build_retraceable([3, -1], HZ)


class TestRetrace:
    def test_steps_down_marker_chain(self):
        m = marker_fixture(HZ)
        finals = m.final_markers(20)
        for n in range(19):
            assert retrace(m, finals[n + 1]) == finals[n]

    def test_below_second_marker(self):
        m = marker_fixture(HZ)
        finals = m.final_markers(2)
        for x in range(finals[1] + 1):
            assert retrace(m, x) == finals[0]

    def test_count_identity(self):
        m = marker_fixture(HZ)
        finals = m.final_markers(20)
        for n in range(20):
            assert count_h(m, finals[n]) == n

    def test_trivial_system_is_identity_layout(self):
        m = MarkerSystem(HZ)
        assert m.final_markers(10) == list(range(10))
        assert count_h(m, 7) == 7
        assert retrace(m, 9) == 8


class TestComplement:
    def test_membership_moves_down_only(self):
        m = marker_fixture(HZ)
        assert validate_monotone_membership(m.membership_process(), "down").ok

    def test_complement_schedule_agrees(self):
        m = marker_fixture(HZ)
        W = m.complement_schedule()
        s_final = HZ.stages - 1
        enumerated = W.members_at(s_final)
        for p in range(HZ.bits):
            assert (p in enumerated) == m.removed(p, s_final)

    def test_entry_stages_match_removal(self):
        m = marker_fixture(HZ)
        W = m.complement_schedule()
        for p, t in m.removal_stage.items():
            assert W.entry_stage(p) == t

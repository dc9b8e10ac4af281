import pytest

from leftre.core import (Horizon, InputError, LimitFunctionApprox,
                         validate_monotone_membership)
from leftre.markers import MarkerSystem, build_retraceable, count_h, retrace
from leftre.fixtures import marker_fixture, settle_plus5

HZ = Horizon(64, 128)


def naive_markers(f: LimitFunctionApprox, stages: int, count: int) -> list[int]:
    """Independent oracle: replay the construction on explicit position lists."""
    live = list(range(4 * stages))
    for s1 in range(1, stages):
        n = next((k for k in range(f.arg_count)
                  if f.value(s1 - 1, k) != f.value(s1, k)), None)
        if n is None:
            continue
        old = live[n]
        live = [p for p in live if p < old or p >= s1]
    return live[:count]


class TestConstruction:
    def test_matches_naive_replay(self):
        f = settle_plus5(HZ.stages)
        m = build_retraceable(f, HZ)
        assert m.final_markers(20) == naive_markers(f, HZ.stages, 20)

    def test_markers_dominate_settled_values(self):
        m = marker_fixture(HZ)
        finals = m.final_markers(20)
        for n in range(20):
            assert finals[n] > n + 5

    def test_markers_only_move_upward(self):
        f = settle_plus5(HZ.stages)
        m = build_retraceable(f, HZ)
        for k in range(8):
            positions = [m.marker(k, s) for s in range(HZ.stages)]
            assert positions == sorted(positions)

    def test_stage_zero_must_be_zero(self):
        bad = LimitFunctionApprox(lambda s, n: 1, 4, HZ.stages)
        with pytest.raises(InputError):
            build_retraceable(bad, HZ)

    def test_stage_bound_enforced(self):
        bad = LimitFunctionApprox(lambda s, n: 0 if s == 0 else s, 4, HZ.stages)
        with pytest.raises(InputError):
            build_retraceable(bad, HZ)


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

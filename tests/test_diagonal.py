import pytest

from leftre.cli import main
from leftre.core import (CapacityError, Horizon, Numbering, Prefix, Schedule,
                         limit_estimate, process_from_stage_prefixes,
                         validate_left_re)
from leftre.diagonal import build_diagonal, compute_F
from leftre.fixtures import diagonal_catalog, diagonal_schedules

HZ = Horizon(48, 96)


def constant_catalog(sets, hz=HZ):
    return Numbering([
        process_from_stage_prefixes([Prefix.from_set(m, hz.bits)] * hz.stages,
                                    hz, str(i))
        for i, m in enumerate(sets)])


def empty_ws(n):
    return [Schedule.from_pairs([]) for _ in range(n)]


class TestComputeF:
    def test_empty_set_first_zero(self):
        nu = constant_catalog([set()])
        assert compute_F(nu, 0, 0) == 0

    def test_empty_and_evens(self):
        nu = constant_catalog([set(), set(range(0, HZ.bits, 2))])
        # Second zero of the empty set sits at 1, of the evens at 3.
        assert compute_F(nu, 1, 0) == 3

    def test_nondecreasing_in_e(self):
        nu = diagonal_catalog(HZ)
        for s in (0, 10, HZ.stages - 1):
            vals = [compute_F(nu, e, s) for e in range(4)]
            assert vals == sorted(vals)

    def test_too_few_zeros(self):
        nu = constant_catalog([set(), set(range(HZ.bits - 1))])
        with pytest.raises(CapacityError):
            compute_F(nu, 1, 0)


class TestBuildDiagonal:
    def test_validator_and_divergence_from_catalog(self):
        nu = diagonal_catalog(HZ)
        B, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        assert validate_left_re(B).ok
        final = B.final_prefix()
        for e in range(4):
            est, _ = limit_estimate(nu.at(e))
            assert final.value != est.value

    def test_points_distinct_every_stage(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        for row in state.x:
            assert len(set(row)) == len(row)

    def test_exponent_nondecreasing(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        for e in range(4):
            series = [state.d[s][e] for s in range(HZ.stages)]
            assert series == sorted(series)

    def test_point_formula(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        for s in (0, HZ.stages - 1):
            for e in range(4):
                assert state.x[s][e] == (1 << e) * 3 ** state.d[s][e]

    def test_trigger_fires_once_and_disagrees(self):
        nu = diagonal_catalog(HZ)
        _, settled = build_diagonal(nu, empty_ws(4), e_cap=3)
        Ws = diagonal_schedules(settled.x[-1], HZ, fire_for=(0,))
        B, state = build_diagonal(nu, Ws, e_cap=3)
        assert validate_left_re(B).ok
        assert len(state.trigger_stages.get(0, [])) == 1
        x0 = state.x[-1][0]
        W = Ws[0].final_members()
        final = B.final_prefix()

        def b_has(y):
            return B.bit(HZ.stages - 1, y) == 1

        assert (x0 in W) != b_has(x0) or (3 * x0 in W) != b_has(3 * x0)
        # Old point rejoined the set when the trigger moved it.
        assert b_has(x0 // 3)

    def test_trace_rows_shape(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        rows = state.trace_rows()
        assert len(rows) == HZ.stages * 4
        assert set(rows[0]) == {"stage", "e", "F", "d", "x"}

    def test_one_stage_tracks_every_index(self):
        # Every index is tracked from stage 0, so one stage tracks all four
        # and the run compares B with the whole catalog.
        hz = Horizon(1, 8)
        nu = diagonal_catalog(hz)
        B, state = build_diagonal(nu, empty_ws(4), e_cap=3)
        assert state.active() == 4
        assert all(B.final_prefix() != limit_estimate(nu.at(e))[0]
                   for e in range(4))
        assert main(["run", "diagonal", "--stages", "1", "--bits", "8"]) == 0

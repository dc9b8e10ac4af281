import pytest
from hypothesis import given, settings, strategies as st

from leftre.cli import main
from leftre.core import (ApproxProcess, CapacityError, Horizon, Numbering,
                         Prefix, Schedule, finite_set_process, limit_estimate,
                         validate_left_re)
from leftre.diagonal import build_diagonal, compute_F
from leftre.fixtures import diagonal_catalog, diagonal_schedules

HZ = Horizon(48, 96)


def constant_catalog(sets, hz=HZ):
    return Numbering([finite_set_process(m, hz, str(i))
                      for i, m in enumerate(sets)])


def compute_F_reference(nu: Numbering, e: int, s: int) -> int:
    """Slow oracle for compute_F: scan each stage value one bit at a time
    for its (e+1)-st zero."""
    best = 0
    N = nu.horizon.bits
    for i in range(e + 1):
        value = nu.at(i).prefix(s).value
        zeros_seen = 0
        pos = None
        for n in range(N):
            if not (value >> (N - 1 - n)) & 1:
                zeros_seen += 1
                if zeros_seen == e + 1:
                    pos = n
                    break
        if pos is None:
            raise CapacityError(
                f"catalog index {i} has fewer than {e + 1} zeros at stage {s}")
        best = max(best, pos)
    return best


def rows_at(state, s):
    """The F, d and x rows of stage s: those of the last point at or
    before it."""
    return [p for p in state.points if p[0] <= s][-1][1:]


def final_points(state):
    return state.points[-1][3]


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

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 80), st.data())
    def test_matches_bit_scan(self, bits, data):
        # Stage values are random, or all-ones but for a few zeros, so that
        # both the position and the too-few-zeros error are exercised.
        hz = Horizon(2, bits)
        full = (1 << bits) - 1
        value = st.one_of(
            st.integers(0, full),
            st.frozensets(st.integers(0, bits - 1), max_size=6).map(
                lambda zeros: full & ~Prefix.from_set(zeros, bits).value))
        size = data.draw(st.integers(1, 6))
        table = data.draw(st.lists(st.tuples(value, value), min_size=size,
                                   max_size=size))
        nu = Numbering([ApproxProcess(lambda s, row=row: row[s], hz)
                        for row in table])
        e = data.draw(st.integers(0, size - 1))
        s = data.draw(st.integers(0, 1))
        try:
            expected = compute_F_reference(nu, e, s)
        except CapacityError as exc:
            with pytest.raises(CapacityError) as got:
                compute_F(nu, e, s)
            assert str(got.value) == str(exc)
        else:
            assert compute_F(nu, e, s) == expected


class TestBuildDiagonal:
    def test_validator_and_divergence_from_catalog(self):
        nu = diagonal_catalog(HZ)
        B, state = build_diagonal(nu, empty_ws(4))
        assert validate_left_re(B).ok
        final = B.final_prefix()
        for e in range(4):
            est, _ = limit_estimate(nu.at(e))
            assert final.value != est.value

    def test_points_distinct_every_stage(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4))
        for _, _, _, row in state.points:
            assert len(set(row)) == len(row)

    def test_exponent_nondecreasing(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4))
        for e in range(4):
            series = [rows_at(state, s)[1][e] for s in range(HZ.stages)]
            assert series == sorted(series)

    def test_point_formula(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4))
        for s in (0, HZ.stages - 1):
            _, row_d, row_x = rows_at(state, s)
            for e in range(4):
                assert row_x[e] == (1 << e) * 3 ** row_d[e]

    def test_trigger_fires_once_and_disagrees(self):
        nu = diagonal_catalog(HZ)
        _, settled = build_diagonal(nu, empty_ws(4))
        Ws = diagonal_schedules(final_points(settled), HZ, fire_for=(0,))
        B, state = build_diagonal(nu, Ws)
        assert validate_left_re(B).ok
        assert len(state.trigger_stages.get(0, [])) == 1
        x0 = final_points(state)[0]
        W = Ws[0].final_members()
        final = B.final_prefix()

        def b_has(y):
            return B.bit(HZ.stages - 1, y) == 1

        assert (x0 in W) != b_has(x0) or (3 * x0 in W) != b_has(3 * x0)
        # Old point rejoined the set when the trigger moved it.
        assert b_has(x0 // 3)

    def test_trace_rows_shape(self):
        nu = diagonal_catalog(HZ)
        _, state = build_diagonal(nu, empty_ws(4))
        rows = list(state.trace_rows())
        assert len(rows) == HZ.stages * 4
        assert set(rows[0]) == {"stage", "e", "F", "d", "x"}

    def test_F_follows_a_changing_catalog(self):
        # Index 0 never changes; index i > 0 fills its first i positions at
        # stage 7, 19 or 30, which moves F(e) for every e >= i.  F is
        # computed only at those stages and must still match a fresh
        # compute at every stage.
        hz = Horizon(40, 64)
        nu = Numbering([finite_set_process(set(), hz)] + [
            Schedule.from_pairs([(x, t) for x in range(i)]).as_process(hz)
            for i, t in ((1, 7), (2, 19), (3, 30))])
        _, state = build_diagonal(nu, empty_ws(4))
        for s in range(hz.stages):
            assert rows_at(state, s)[0] == [compute_F(nu, e, s)
                                            for e in range(4)], s
        assert [p[0] for p in state.points] == [0, 7, 19, 30]

    def test_capacity_error_at_the_stage_zeros_run_out(self):
        hz = Horizon(40, 8)
        nu = Numbering([finite_set_process(set(), hz),
                        Schedule.from_pairs([(x, 20) for x in range(7)]
                                            ).as_process(hz)])
        with pytest.raises(CapacityError, match="catalog index 1 has fewer "
                                                "than 2 zeros at stage 20"):
            build_diagonal(nu, empty_ws(2))

    def test_one_stage_tracks_every_index(self):
        # Every index is tracked from stage 0, so one stage tracks all four
        # and the run compares B with the whole catalog.
        hz = Horizon(1, 8)
        nu = diagonal_catalog(hz)
        B, state = build_diagonal(nu, empty_ws(4))
        assert state.active() == 4
        assert all(B.final_prefix() != limit_estimate(nu.at(e))[0]
                   for e in range(4))
        assert main(["run", "diagonal", "--stages", "1", "--bits", "8"]) == 0

    def test_a_still_catalog_keeps_one_point(self):
        _, state = build_diagonal(diagonal_catalog(HZ), empty_ws(4))
        assert [p[0] for p in state.points] == [0]
        assert len(list(state.trace_rows())) == HZ.stages * 4


def diagonal_reference(nu, Ws, stages):
    """build_diagonal rebuilt stage by stage: F from compute_F at every
    stage, the trigger read through Schedule.bit.  Returns the trace rows and
    the trigger stages of each index."""
    n = min(nu.index_range, len(Ws))
    F_prev, d, bumped = [None] * n, [0] * n, [False] * n
    rows, triggers = [], {}
    for s in range(stages):
        for e in range(n):
            F = compute_F(nu, e, s)
            if F != F_prev[e]:
                F_prev[e], bumped[e] = F, False
            d[e] = max(d[e], F)
            x = (1 << e) * 3 ** d[e]
            if not bumped[e] and Ws[e].bit(x, s) == 0 and Ws[e].bit(3 * x, s) == 1:
                d[e] += 1
                bumped[e] = True
                x *= 3
                triggers.setdefault(e, []).append(s)
            rows.append({"stage": s, "e": e, "F": F, "d": d[e], "x": x})
    return rows, triggers


def assert_matches_reference(nu, Ws, B, state):
    """Trace rows, trigger stages and B's value at every stage against the
    per-stage rebuild; B is the complement of the stage's x row."""
    S, N = nu.horizon.stages, nu.horizon.bits
    rows, triggers = diagonal_reference(nu, Ws, S)
    assert list(state.trace_rows()) == rows
    assert state.trigger_stages == triggers
    for s in range(S):
        points = [row["x"] for row in rows if row["stage"] == s]
        assert B.value(s) == ((1 << N) - 1) & ~Prefix.from_set(points, N).value


class TestStageValuesAgainstReference:
    """build_diagonal computes a row only where a tracked catalog process
    changes or a tracked schedule enters an element, and keeps a point only
    where a row moves; every stage must still match a per-stage rebuild."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 48), st.integers(8, 96),
           st.sets(st.integers(0, 3), min_size=1), st.data())
    def test_firing_schedules(self, stages, bits, fire_for, data):
        # Catalog index i fills its first i positions at a stage before
        # S // 2, where the schedules fire on the points settled by then.
        hz = Horizon(stages, bits)
        fill = st.integers(0, stages // 2 - 1)
        nu = Numbering([finite_set_process(set(), hz)] + [
            Schedule.from_pairs([(x, t) for x in range(i)]).as_process(hz)
            for i, t in zip((1, 2, 3), data.draw(st.lists(
                fill, min_size=3, max_size=3)))])
        _, settled = build_diagonal(nu, empty_ws(4))
        Ws = diagonal_schedules(final_points(settled), hz, tuple(fire_for))
        B, state = build_diagonal(nu, Ws)
        assert sorted(state.trigger_stages) == sorted(fire_for)
        assert_matches_reference(nu, Ws, B, state)


class TestTriggerAgainstReference:
    """build_diagonal reads each schedule's first entry stage per element
    once; the trigger must fire where per-stage Schedule.bit reads fire it,
    also for repeated and out-of-order entries, and between or at the
    stages where the catalog moves F."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 40), st.data())
    def test_random_schedules(self, stages, data):
        # Catalog index i fills its first i positions at a drawn stage, or
        # never when the stage is past the horizon; the schedules hold the
        # points of stage 0 and their triples, which fire the bump.
        hz = Horizon(stages, 64)
        fill = st.integers(0, stages)
        nu = Numbering([finite_set_process(set(), hz)] + [
            Schedule.from_pairs([(x, t) for x in range(i)]).as_process(hz)
            for i, t in zip((1, 2, 3), data.draw(st.lists(
                fill, min_size=3, max_size=3)))])
        _, settled = build_diagonal(nu, empty_ws(4))
        entry = st.tuples(st.sampled_from((0, 1, 2, 3)),
                          st.integers(0, stages - 1))
        Ws = [Schedule.from_pairs(
                  (3 ** k * x, t) for k, t in data.draw(st.lists(entry,
                                                                 max_size=6)))
              for x in settled.points[0][3]]
        B, state = build_diagonal(nu, Ws)
        assert_matches_reference(nu, Ws, B, state)


class TestDiagonalCatalog:
    @pytest.mark.parametrize("N", [1, 2, 7, 8, 9, 100])
    def test_packed_patterns_match_from_set(self, N):
        hz = Horizon(3, N)
        shapes = [(), range(0, N, 2), range(0, N, 3), range(8, N)]
        nu = diagonal_catalog(hz)
        assert [nu.at(i).label for i in range(4)] == [f"diag-{i}"
                                                       for i in range(4)]
        for i, members in enumerate(shapes):
            expected = Prefix.from_set(members, N)
            assert all(nu.at(i).prefix(s) == expected for s in range(3))

"""Per-stage slow oracle for the writers that pass `moves`.

A writer that tells `ApproxProcess` the stages where its value can move has
its stage function called only there.  The oracle rebuilds every such
process with `moves=None` from the same stage function, which is then
called at every stage, and requires the same change points, the same value
at every stage and the same validator reports.  It runs under each CLI
construction at small horizons, and directly on the writers no construction
reaches.

A process with a past-horizon answer keeps `past_moves`, the stages where
that answer may move.  The past oracle reads the answers at every stage
and requires each stage outside the past moves to repeat the one before;
`btt_check`, which compares only the stages where something may move, must
give the report of the same pair built with `moves=None`.
"""
import json
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from leftre import cli
from leftre.core import (ApproxProcess, Horizon, Schedule, complement_runs,
                         limit_estimate, validate_left_re,
                         validate_monotone_membership)
from leftre.diagonal import build_diagonal
from leftre.fixtures import diagonal_catalog, diagonal_schedules
from leftre.selfref import infinite_indexset_gadget
from leftre.zulu import (_zulu_state, btt_check, build_maximal, build_minimal,
                         max_join_gadget, tilde_set)


def assert_same_process(p: ApproxProcess, ref: ApproxProcess) -> None:
    S = p.horizon.stages
    assert tuple(p.changes) == tuple(ref.changes), p.label
    assert [p.value(s) for s in range(S)] == [ref.value(s) for s in range(S)]
    assert validate_left_re(p) == validate_left_re(ref)
    for direction in ("up", "down"):
        assert validate_monotone_membership(p, direction) == \
            validate_monotone_membership(ref, direction)
    assert limit_estimate(p) == limit_estimate(ref)


@contextmanager
def per_stage_oracle():
    """Compare every process built with `moves` against its per-stage build
    while the block runs; yields the labels of the processes compared."""
    init = ApproxProcess.__init__
    compared = []

    def init_and_compare(self, prefix_fn, horizon, label="", bit_fn=None,
                         runs_fn=None, moves=None):
        init(self, prefix_fn, horizon, label, bit_fn, runs_fn, moves)
        if moves is not None:
            ref = object.__new__(ApproxProcess)
            init(ref, prefix_fn, horizon, label, bit_fn, runs_fn)
            assert_same_process(self, ref)
            compared.append(label)

    ApproxProcess.__init__ = init_and_compare
    try:
        yield compared
    finally:
        ApproxProcess.__init__ = init


def run_construction(construction, stages, bits, seed, tmp_path) -> int:
    out = tmp_path / "trace.jsonl"
    code = cli.main(["run", construction, "--stages", str(stages), "--bits",
                     str(bits), "--seed", str(seed), "--out", str(out)])
    if code == 0:
        assert json.loads(out.read_text().splitlines()[-1])["ok"]
    return code


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(cli.CONSTRUCTIONS), st.integers(1, 48),
       st.integers(1, 96), st.integers(0, 50))
def test_every_construction_against_per_stage_builds(tmp_path_factory,
                                                     construction, S, N, seed):
    # Exit 2 is a horizon too small for the construction, raised before or
    # while its processes are built; every process built so far is compared.
    with per_stage_oracle():
        code = run_construction(construction, S, N, seed,
                                tmp_path_factory.mktemp("run"))
    assert code in (0, 2)


def test_every_writer_is_compared(tmp_path):
    # One run of each construction at 48x96 builds a process with `moves`
    # from each writer a construction reaches.
    with per_stage_oracle() as compared:
        for construction in cli.CONSTRUCTIONS:
            assert run_construction(construction, 48, 96, 1, tmp_path) == 0
    kinds = {label.rstrip("0123456789") for label in compared}
    assert kinds >= {
        "schedule", "driving", "evens-stream", "odd-stream",  # as_process
        "coded-k", "marker-set", "split-E",  # derived_process
        "odds", "cand-", "diag-",  # no moves at all
        "excise-base-", "gazebo-beta-", "selfref-base-",  # random processes
        "strict-superset", "minimal", "maximal", "tilde", "diagonal",
        "alpha-", "beta-", "tail-", "excised-", "gamma-",
        "late-boundary"}, kinds


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 24), st.integers(1, 24), st.data())
def test_join_and_cutoff_gadgets(S, N, data):
    hz = Horizon(S, N)

    def schedule() -> Schedule:
        return Schedule.from_pairs(data.draw(st.lists(st.tuples(
            st.integers(0, N + 2), st.integers(0, S + 2)), max_size=8)))

    B, W = schedule().as_process(hz), schedule()
    with per_stage_oracle() as compared:
        max_join_gadget(B, W)
        infinite_indexset_gadget(B, W)
    assert {"join-gadget", "cutoff"} <= set(compared)


@contextmanager
def moves_ignored():
    """Build every process with `moves=None` while the block runs: its stage
    function runs at every stage and its past answers may move at every
    stage."""
    init = ApproxProcess.__init__

    def init_per_stage(self, prefix_fn, horizon, label="", bit_fn=None,
                       runs_fn=None, moves=None):
        init(self, prefix_fn, horizon, label, bit_fn, runs_fn)

    ApproxProcess.__init__ = init_per_stage
    try:
        yield
    finally:
        ApproxProcess.__init__ = init


def unmoved_past_stages(p: ApproxProcess, probes, intervals=()) -> list[int]:
    """The stages s >= 1 outside p's past moves where `bit` at a probe past
    the bit horizon, or `past_runs` over an interval, differs from stage
    s - 1's."""
    probes = sorted(u for u in set(probes) if u >= p.horizon.bits)
    moves = set(p.past_moves)

    def answers(s):
        return ([p.bit(s, u) for u in probes],
                [p.past_runs(s, lo, hi) for lo, hi in intervals])

    bad, before = [], answers(0)
    for s in range(1, p.horizon.stages):
        now = answers(s)
        if s not in moves and now != before:
            bad.append(s)
        before = now
    return bad


def zulu_horizons():
    """A horizon, seed and layout cap of the CLI's zulu state; the driving
    history needs two stages."""
    return st.tuples(st.integers(2, 48), st.integers(1, 96),
                     st.integers(0, 50), st.integers(1, 3))


def zulu_pair(S, N, seed, n_cap):
    hz = Horizon(S, N)
    state = _zulu_state(hz, seed, {"n_cap": n_cap})
    return state, build_minimal(state, hz), build_maximal(state, hz)


@settings(deadline=None, max_examples=60)
@given(zulu_horizons(), st.lists(st.tuples(st.integers(1, 4),
                                           st.integers(0, 50)), max_size=4))
def test_past_answers_move_only_at_the_past_moves(horizon, entries):
    S, N, seed, n_cap = horizon
    state, A, B = zulu_pair(S, N, seed, n_cap)
    layout = state.layout
    intervals = [layout.interval(n) for n in range(1, n_cap + 1)]
    # A past answer can change only at a marker, its mirror or the end of
    # the covered intervals: probe those and their neighbours.
    marks = {u + d for s in range(S)
             for u in (*state.markers(s), *state.mirrors(s)) for d in (-1, 0, 1)}
    ends = {u for lo, hi in intervals for u in (lo, hi, hi + 1)}
    near = set(range(N, N + 40))
    zulu_probes = marks | ends | near
    for p in (A, B):
        assert unmoved_past_stages(p, zulu_probes, intervals) == [], p.label
    W = Schedule.from_pairs(entries)
    tilde_probes = {3 * u + r for u in zulu_probes for r in range(3)} | near
    for subset_form in (False, True):
        T = tilde_set(A, W, layout, subset_form)
        assert unmoved_past_stages(T, tilde_probes) == [], subset_form


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 48), st.integers(8, 96))
def test_diagonal_past_answer_moves_only_at_its_points(S, N):
    # Below 8 bits the catalog has too few zeros for four indices.
    hz = Horizon(S, N)
    nu = diagonal_catalog(hz)
    _, settled = build_diagonal(nu, [Schedule.from_pairs([])] * 4)
    # Index 0's schedule fires its one-time bump at stage S // 2.
    B, state = build_diagonal(
        nu, diagonal_schedules(settled.points[-1][3], hz, fire_for=(0,)))
    xs = {x + d for point in state.points for x in point[3] for d in (-1, 0, 1)}
    assert unmoved_past_stages(B, xs | set(range(N, N + 40))) == []


def past_inverted_at(p: ApproxProcess, stage: int) -> ApproxProcess:
    """`p` built with `moves=None`, its past answers inverted at `stage`."""
    N = p.horizon.bits
    return ApproxProcess(
        p.value, p.horizon, p.label,
        bit_fn=lambda s, u: p.bit_fn(s, u) ^ (s == stage),
        runs_fn=lambda s, lo, hi: complement_runs(
            p.runs_fn(s, lo, hi), max(lo, N), hi) if s == stage
        else p.runs_fn(s, lo, hi))


@settings(deadline=None, max_examples=60)
@given(zulu_horizons(), st.data())
def test_btt_check_compares_where_something_may_move(horizon, data):
    S, N, seed, n_cap = horizon
    state, A, B = zulu_pair(S, N, seed, n_cap)
    with moves_ignored():
        _, A0, B0 = zulu_pair(S, N, seed, n_cap)
    assert A0.past_moves == B0.past_moves == range(1, S)
    report = btt_check(A, B, state.layout)
    assert report.ok and report == btt_check(A0, B0, state.layout)
    # One side's past answers broken at one stage, which may be no move of
    # the other side: the audit must still compare that stage.
    stage = data.draw(st.integers(1, S - 1), label="stage")
    for pair in ((past_inverted_at(A, stage), B),
                 (A, past_inverted_at(B, stage))):
        assert btt_check(*pair, state.layout) == btt_check(
            *pair, state.layout, stages=range(S))


def test_btt_check_reads_the_past_moves_of_each_side():
    # At 48x64 (seed 0) neither process moves at a stage outside the zulu
    # moves.  One side rebuilt with its past answers inverted at such a
    # stage moves there only by its past moves, and the audit must compare
    # that stage and fail there.
    state, A, B = zulu_pair(48, 64, 0, 3)
    quiet = [s for s in range(4, 48) if s not in state._moves]
    assert len(quiet) > 30
    for s in quiet:
        for pair in ((past_inverted_at(A, s), B), (A, past_inverted_at(B, s))):
            report = btt_check(*pair, state.layout)
            assert not report.ok and report.stage == s
            assert report == btt_check(*pair, state.layout, stages=range(48))

"""Per-stage slow oracle for the writers that pass `moves`.

A writer that tells `ApproxProcess` the stages where its value can move has
its stage function called only there.  The oracle rebuilds every such
process with `moves=None` from the same stage function, which is then
called at every stage, and requires the same change points, the same value
at every stage and the same validator reports.  It runs under each CLI
construction at small horizons, and directly on the writers no construction
reaches.
"""
import json
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from leftre import cli
from leftre.core import (ApproxProcess, Horizon, Schedule, limit_estimate,
                         validate_left_re, validate_monotone_membership)
from leftre.selfref import infinite_indexset_gadget
from leftre.zulu import max_join_gadget


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

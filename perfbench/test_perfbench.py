"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import sys
import time

import pytest

import run
from tracer import Tracer


def child(tmp_path, code: str, timeout: float = 30.0) -> run.Child:
    return run.run_child([sys.executable, "-c", code], timeout,
                         tmp_path / "stderr")


def test_timed_out_invocation_is_killed_and_counted(tmp_path):
    start = time.perf_counter()
    c = child(tmp_path, "import time; time.sleep(60)", timeout=0.5)
    assert time.perf_counter() - start < 10
    assert c.returncode is None
    assert run.classify(c.returncode, c.stderr, False) == "timeout"


def test_nonzero_exits_are_told_apart(tmp_path):
    failed = child(tmp_path, "import sys; sys.exit(1)")
    typed = child(tmp_path, "import sys; sys.exit(2)")
    raw = child(tmp_path, "raise ValueError('boom')")
    assert run.classify(failed.returncode, failed.stderr, False) == "check_failed"
    assert run.classify(typed.returncode, typed.stderr, False) == "typed_error"
    assert raw.returncode == 1
    assert run.classify(raw.returncode, raw.stderr, False) == "traceback"


def test_in_process_invocation_is_cut_off(tmp_path):
    class Hangs:
        @staticmethod
        def main(args):
            time.sleep(60)

    tally = run.Tally({})
    inv = run.Invocation("selfref", 8, 16, 1)
    start = time.perf_counter()
    run.in_process_pass(Hangs, [inv, inv], tmp_path, tally,
                        deadline=time.perf_counter() + 0.5)
    assert time.perf_counter() - start < 10
    assert tally.attempted == 1 and tally.statuses["timeout"] == 1


def test_child_rusage_is_its_own(tmp_path):
    # The test process is far larger than a bare interpreter; a child forked
    # from it directly would report that size.
    ballast = b"1" * (96 * 1024 * 1024)
    small = child(tmp_path, "pass")
    assert small.maxrss_kb < 48 * 1024
    big = child(tmp_path, "x = b'1' * (64 * 1024 * 1024)")
    assert big.returncode == 0
    assert big.maxrss_kb - small.maxrss_kb > 48 * 1024
    del ballast


def test_cli_invocation_replays(tmp_path):
    inv = run.Invocation("gazebo", 16, 32, 3, (("size", 3),))
    first = run.run_invocation(inv, tmp_path, 60)
    second = run.run_invocation(inv, tmp_path, 60)
    assert first.status == second.status == "ok"
    assert first.sha is not None and first.sha == second.sha
    assert first.maxrss_kb > 0 and first.wall_s > 0


def test_verdict_must_say_ok(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"type": "header"}\n{"checks": {}, "ok": false, "type": "verdict"}\n')
    sha, ok, size = run.read_trace(trace)
    assert sha and not ok and size == trace.stat().st_size
    assert run.classify(0, "", ok) == "bad_verdict"
    assert run.read_trace(tmp_path / "missing") == (None, False, 0)


def test_tally_counts_failures_and_trace_mismatches():
    a = run.Invocation("zulu-min", 8, 16, 1)
    b = run.Invocation("zulu-max", 8, 16, 1)
    tally = run.Tally({a.key(): "golden"})
    tally.add(run.Outcome(a, "ok", 1.0, sha="golden"))
    tally.add(run.Outcome(a, "ok", 1.0, sha="other"))   # differs from golden
    tally.add(run.Outcome(b, "ok", 1.0, sha="first"))   # no golden: replay
    tally.add(run.Outcome(b, "ok", 1.0, sha="second"))  # does not replay
    tally.add(run.Outcome(b, "timeout", 60.0))
    assert tally.attempted == 5
    assert tally.failed == 1 and tally.fail_ratio() == 0.2
    assert tally.mismatches == 2 and tally.mismatch_ratio() == 0.5


def test_workload_inputs_come_from_the_seed():
    for name in run.WORKLOADS:
        assert run.workload_invocations(name, 3) == run.workload_invocations(name, 3)
    assert (run.workload_invocations("gazebo-followers", 3)
            != run.workload_invocations("gazebo-followers", 4))


def test_spec_names_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture
def cli():
    return run.import_cli()


def test_wrappers_patch_every_lookup_site_and_come_off(cli):
    import leftre.core as core
    original = core.validate_left_re
    tracer = Tracer()
    tracer.install()
    try:
        assert core.validate_left_re is not original
        assert cli.validate_left_re is core.validate_left_re
    finally:
        tracer.uninstall()
    assert core.validate_left_re is original
    assert cli.validate_left_re is original


def test_missing_target_is_absent_not_fatal(cli, monkeypatch):
    import leftre.zulu as zulu
    monkeypatch.delattr(zulu, "btt_check")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "zulu.btt_check" in tracer.missing
    assert "zulu.btt_check" not in tracer.installed
    assert "zulu.btt_probes" not in tracer.installed
    assert "core.bit_fn_calls" in tracer.installed


def test_traced_run_attributes_self_time(cli, tmp_path):
    out = tmp_path / "t.jsonl"
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.run", cli.main,
                           ["run", "zulu-min", "--stages", "16", "--bits", "32",
                            "--seed", "3", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    selfs = tracer.self_times()
    assert selfs["zulu.btt_check"] > 0
    assert tracer.counters()["zulu.btt_probes"] > 0
    assert tracer.counters()["core.bit_fn_calls"] > 0
    # Self times partition the root span.
    root = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1])
    for i, (_, start, end, parent) in enumerate(tracer.spans):
        assert start <= end
        if parent is not None:
            assert parent < i
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    assert len(path.read_text().splitlines()) == len(tracer.spans)
    assert json.loads(path.read_text().splitlines()[0])["name"] == "cli.run"


def test_per_layer_reports_every_metric_of_the_spec(cli, tmp_path, monkeypatch):
    tiny = [run.Invocation("zulu-min", 16, 32, 3),
            run.Invocation("gazebo", 16, 32, 3, (("size", 3),))]
    monkeypatch.setattr(run, "workload_invocations", lambda name, seed: tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    names = [m["name"] for m in run.load_spec()["per_layer"]]
    tally = run.Tally({})
    values = run.per_layer("zulu-audit", 3, names, tmp_path, tally,
                           time.perf_counter() + 60)
    assert sorted(values) == sorted(names)
    assert tally.attempted == 4 and tally.failed == 0 and tally.mismatches == 0
    assert values["zulu.btt_check_s"] > 0 and values["relations.gazebo_run_s"] > 0
    assert values["genericity.variants_checked"] == 0

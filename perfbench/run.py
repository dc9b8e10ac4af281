#!/usr/bin/env python3
"""End-to-end benchmark of the `leftre run` CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload zulu-audit --seed 13 --seconds 36 --trace 0
    python3 perfbench/run.py --heldout          # every workload at the held-out seed
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

With `--trace 0` every invocation is a fresh `python3 -m leftre.cli run ...`
process, the path users take, started one at a time.  Passes over the
workload's invocation list repeat until `--seconds` is spent (at least two, so
every trace is replayed).  With `--trace 1` the same list runs in this process
through `leftre.cli.main`, once plain and once with the span tracer installed.

Each run checks every verdict and trace, prints one line per metric with its
unit, and ends with one JSON object on the last line of standard output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SPAWN = BENCH_DIR / "spawn.py"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 13  # the seed golden.json records
HELDOUT_SEED = 29  # used by --heldout only; never tuned against
INVOCATION_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # no invocation starts later than this into a run
SETUP_SPAWNS = 7
MIN_PASSES = 2
GAZEBO_CATALOGS = 14  # catalog seeds per gazebo-followers pass

ZULU = ("zulu-min", "zulu-max", "tilde-a")
WIDE = ("markers", "generic", "selfref", "bambam", "maxsep", "split",
        "lowerfarm", "inc-decode", "diagonal", "excise")

WORKLOADS = {
    # btt_check over the block layout is nearly all of zulu-min/max, and
    # tilde-a builds every prefix bit by bit through bit_fn; no relations code.
    "zulu-audit": "zulu-min, zulu-max and tilde-a at 512x1024",
    # Follower runs, obliteration cascades and the persistence audit; the
    # read-heavy user of the prefix cache.  No zulu and no bit_fn path.  The
    # cost of one catalog swings by +-30 % with its seed, so a pass runs many
    # small catalogs to keep the pass time steady from seed to seed.
    "gazebo-followers": f"gazebo at 64x128, catalog size 5 and 8, "
                        f"{GAZEBO_CATALOGS} catalog seeds",
    # Packed-integer construction loops, decoding and trace writing; no
    # btt_check and no follower run, so it is the control for the other two.
    "wide-sweep": "the other 10 constructions at 2048x4096",
}

STATUSES = ("ok", "bad_verdict", "check_failed", "typed_error", "traceback",
            "timeout", "crash")


@dataclass(frozen=True)
class Invocation:
    construction: str
    stages: int
    bits: int
    seed: int
    params: tuple[tuple[str, int], ...] = ()

    def key(self) -> str:
        params = json.dumps(dict(self.params), sort_keys=True)
        return (f"{self.construction} seed={self.seed} "
                f"{self.stages}x{self.bits} params={params}")

    def kind(self) -> tuple:
        return self.construction, self.params

    def cli_args(self, out: Path, config: Path) -> list[str]:
        args = ["run", self.construction, "--stages", str(self.stages),
                "--bits", str(self.bits), "--seed", str(self.seed),
                "--out", str(out)]
        if self.params:
            config.write_text(json.dumps({"params": dict(self.params)},
                                         sort_keys=True) + "\n")
            args += ["--config", str(config)]
        return args


def workload_invocations(name: str, seed: int) -> list[Invocation]:
    if name == "zulu-audit":
        return [Invocation(c, 512, 1024, seed) for c in ZULU]
    if name == "wide-sweep":
        return [Invocation(c, 2048, 4096, seed) for c in WIDE]
    if name == "gazebo-followers":
        rng = random.Random(seed)
        catalogs = rng.sample(range(1_000_000), GAZEBO_CATALOGS)
        return [Invocation("gazebo", 64, 128, c, (("size", size),))
                for c in catalogs for size in (5, 8)]
    raise KeyError(name)


# -- one child process ------------------------------------------------------

@dataclass
class Child:
    returncode: Optional[int]  # None when killed at the timeout
    wall_s: float
    maxrss_kb: int
    stderr: str


def run_child(argv: list[str], timeout: float, stderr_path: Path,
              env: Optional[dict] = None) -> Child:
    """Run one command through spawn.py; kill its process group at `timeout`."""
    report = stderr_path.with_name("spawn.json")
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    timed_out = False
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(SPAWN), str(report), *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=env, start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.returncode is None:  # timed out or interrupted
                stop(proc)
    stderr = stderr_path.read_text(errors="replace")
    wall = time.perf_counter() - start
    if timed_out:
        return Child(None, wall, 0, stderr)
    if not report.exists():  # spawn.py itself failed
        return Child(proc.returncode or 1, wall, 0, stderr)
    r = json.loads(report.read_text())
    return Child(os.waitstatus_to_exitcode(r["status"]), r["wall_s"],
                 r["maxrss_kb"], stderr)


def stop(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Ask spawn.py to kill and reap its command; SIGKILL the whole process
    group if it has not exited within `grace_s`."""
    proc.terminate()
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def classify(returncode: Optional[int], stderr: str,
             verdict_ok: bool) -> str:
    """Exit 1 is a failed check, exit 2 a typed error; a Python traceback also
    exits 1 and is told apart by its stderr."""
    if returncode is None:
        return "timeout"
    if returncode == 0:
        return "ok" if verdict_ok else "bad_verdict"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode == 1:
        return "check_failed"
    if returncode == 2:
        return "typed_error"
    return "crash"


def read_trace(path: Path) -> tuple[Optional[str], bool, int]:
    """(sha256, verdict says ok, size in bytes) of a trace file."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, False, 0
    lines = data.splitlines()
    try:
        verdict = json.loads(lines[-1]) if lines else {}
    except ValueError:
        verdict = {}
    ok = (isinstance(verdict, dict) and verdict.get("type") == "verdict"
          and verdict.get("ok") is True)
    return hashlib.sha256(data).hexdigest(), ok, len(data)


@dataclass
class Outcome:
    invocation: Invocation
    status: str
    wall_s: float
    maxrss_kb: int = 0
    sha: Optional[str] = None


# -- checks shared by every mode -------------------------------------------

@dataclass
class Tally:
    """Failures and trace mismatches against the number attempted."""
    golden: dict[str, str]
    first_sha: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    statuses: dict[str, int] = field(default_factory=lambda: dict.fromkeys(STATUSES, 0))
    traces: int = 0
    mismatches: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, o: Outcome) -> None:
        self.attempted += 1
        self.statuses[o.status] += 1
        if o.status != "ok":
            self.notes.append(f"{o.status}: {o.invocation.key()}")
        if o.sha is None:
            return
        self.traces += 1
        key = o.invocation.key()
        # A trace must match the golden when one is recorded, and must replay
        # byte for byte within the run in any case.
        expected = self.golden.get(key) or self.first_sha.setdefault(key, o.sha)
        if o.sha != expected:
            self.mismatches += 1
            self.notes.append(f"trace mismatch: {key}")

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses["ok"]

    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def mismatch_ratio(self) -> float:
        return self.mismatches / self.traces if self.traces else 0.0

    def report(self) -> None:
        counts = " ".join(f"{s}={n}" for s, n in self.statuses.items())
        print(f"attempted {self.attempted}: {counts}")
        print(f"fail_ratio {self.fail_ratio()!r} ratio")
        print(f"trace_mismatch_ratio {self.mismatch_ratio()!r} ratio "
              f"({self.mismatches} of {self.traces} traces)")
        for note in self.notes[:20]:
            print(f"  {note}", file=sys.stderr)


# -- subprocess passes (end-to-end) ----------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_invocation(inv: Invocation, work: Path, timeout: float) -> Outcome:
    out, config, err = work / "trace.jsonl", work / "config.json", work / "stderr"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "leftre.cli"] + inv.cli_args(out, config)
    child = run_child(argv, timeout, err, child_env())
    sha, verdict_ok, _ = read_trace(out)
    status = classify(child.returncode, child.stderr, verdict_ok)
    return Outcome(inv, status, child.wall_s, child.maxrss_kb, sha)


def measure_setup(work: Path) -> float:
    """Median time to start a fresh interpreter and import leftre.cli."""
    argv = [sys.executable, "-c", "import leftre.cli"]
    run_child(argv, INVOCATION_TIMEOUT_S, work / "stderr", child_env())  # .pyc
    times = []
    for _ in range(SETUP_SPAWNS):
        child = run_child(argv, INVOCATION_TIMEOUT_S, work / "stderr", child_env())
        if child.returncode != 0:
            raise RuntimeError(f"import leftre.cli failed:\n{child.stderr}")
        times.append(child.wall_s)
    return statistics.median(times)


def subprocess_passes(invocations: list[Invocation], seconds: float,
                      deadline: float, work: Path,
                      tally: Tally) -> list[list[Outcome]]:
    """Whole passes over the list until `seconds` is spent, at least
    MIN_PASSES so every trace is replayed; stops early only at the run's hard
    deadline."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outcomes = []
        for inv in invocations:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            o = run_invocation(inv, work, min(INVOCATION_TIMEOUT_S, left))
            tally.add(o)
            outcomes.append(o)
        if len(outcomes) < len(invocations):
            break
        passes.append(outcomes)
        now = time.perf_counter()
        last = now - pass_start
        if len(passes) >= MIN_PASSES and now - start + last > seconds:
            break
        if now + last > deadline:
            break
    return passes


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               work: Path, tally: Tally) -> dict[str, float]:
    setup_s = measure_setup(work)
    passes = subprocess_passes(workload_invocations(workload, seed), seconds,
                               deadline, work, tally)
    if not passes:
        raise RuntimeError("no complete pass within the run's time budget")
    print(f"{len(passes)} passes of {len(passes[0])} invocations")
    outcomes = [o for p in passes for o in p]
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "max_run_s": statistics.median(
            max(statistics.fmean(walls) for walls in by_kind(p, "wall_s"))
            for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": max(statistics.median(rss) for rss
                           in by_kind(outcomes, "maxrss_kb")) / 1024,
    }


def by_kind(outcomes: list[Outcome], attr: str) -> list[list[float]]:
    """Values of `attr` grouped by kind of invocation (construction and
    params).  gazebo-followers runs one kind on many catalogs, whose cost
    swings with the catalog, so its slowest and largest figures are taken
    per kind, not from the single most expensive catalog."""
    groups: dict[tuple, list[float]] = {}
    for o in outcomes:
        groups.setdefault(o.invocation.kind(), []).append(getattr(o, attr))
    return list(groups.values())


# -- in-process passes (per layer) -----------------------------------------

def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import leftre.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported leftre from {cli.__file__}, not {SRC}")
    return cli


class InvocationTimeout(Exception):
    """Raised by SIGALRM inside an in-process invocation that ran too long."""


def _alarm(signum, frame):
    raise InvocationTimeout


def in_process_pass(cli, invocations: list[Invocation], work: Path,
                    tally: Tally, deadline: float,
                    tracer=None) -> tuple[float, int]:
    """Run every invocation through cli.main; (total wall, trace bytes).

    Each call is cut off by an alarm after INVOCATION_TIMEOUT_S, or at the
    run's deadline, and counted as a timeout."""
    total, trace_bytes = 0.0, 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for inv in invocations:
            left = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
            if left <= 0:
                break
            out, config = work / "trace.jsonl", work / "config.json"
            out.unlink(missing_ok=True)
            args = inv.cli_args(out, config)
            stderr = ""
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                if tracer is None:
                    code = cli.main(args)
                else:
                    code = tracer.call("cli.run", cli.main, args)
            except InvocationTimeout:
                code = None
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raw traceback in the CLI: count it
                code, stderr = 1, f"Traceback (most recent call last)\n{exc!r}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            total += wall
            sha, verdict_ok, size = read_trace(out)
            trace_bytes += size
            tally.add(Outcome(inv, classify(code, stderr, verdict_ok), wall,
                              sha=sha))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return total, trace_bytes


def per_layer(workload: str, seed: int, names: list[str], work: Path,
              tally: Tally, deadline: float) -> dict[str, float]:
    from tracer import Tracer

    cli = import_cli()
    invocations = workload_invocations(workload, seed)
    plain_s, _ = in_process_pass(cli, invocations, work, tally, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, trace_bytes = in_process_pass(cli, invocations, work, tally,
                                                deadline, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    print(f"{len(tracer.spans)} spans written to {spans_path}")
    for target in tracer.missing:
        print(f"absent: {target} not found, its metrics are not reported",
              file=sys.stderr)

    selfs = tracer.self_times()
    counts = tracer.counters()
    values: dict[str, float] = {
        "trace.overhead_s": traced_s - plain_s,
        "cli.trace_bytes": trace_bytes,
        "fail_ratio": tally.fail_ratio(),
        "trace_mismatch_ratio": tally.mismatch_ratio(),
    }
    installed = tracer.installed | {"cli.run"}
    for name in names:
        if name in values:
            continue
        if name == "core.prefix_hit_ratio":
            if {"core.prefix_calls", "core.prefix_hits"} <= installed:
                calls = counts["core.prefix_calls"]
                values[name] = counts["core.prefix_hits"] / calls if calls else 0.0
        elif name.endswith("_s") and name[:-2] in installed:
            values[name] = selfs.get(name[:-2], 0.0)
        elif name in installed:
            values[name] = counts.get(name, 0)
    return values


# -- entry points ----------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_golden() -> dict[str, str]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_program() -> None:
    if not (SRC / "leftre" / "cli.py").is_file():
        raise SystemExit(f"error: no leftre program under {SRC}; run from a "
                         "checkout of the repository")


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.perf_counter()
    spec = load_spec()
    tally = Tally(load_golden())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"{workload} (seed {seed}): {WORKLOADS[workload]}")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if trace:
            values = per_layer(workload, seed, [m["name"] for m in group],
                               work, tally, start + RUN_BUDGET_S)
        else:
            values = end_to_end(workload, seed, seconds,
                                start + RUN_BUDGET_S, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally.report()
    metrics = {}
    for m in group:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
        else:
            print(f"{m['name']} absent {m['unit']}")
    result = {"correct": tally.failed == 0 and tally.mismatches == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def replay_check(seed: int) -> Tally:
    """Two subprocess passes of every workload at `seed`, without goldens."""
    tally = Tally({})
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        for name in WORKLOADS:
            passes = subprocess_passes(workload_invocations(name, seed), 0,
                                       time.perf_counter() + 3600, work, tally)
            walls = [sum(o.wall_s for o in p) for p in passes]
            print(f"{name} seed {seed}: passes {walls!r} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return tally


def heldout(seed: int) -> int:
    tally = replay_check(seed)
    tally.report()
    ok = tally.failed == 0 and tally.mismatches == 0
    print(f"held-out seed {seed}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def record_golden() -> int:
    tally = replay_check(DEFAULT_SEED)
    shas = tally.first_sha
    tally.report()
    if tally.failed or tally.mismatches:
        print("not recorded: a run failed or did not replay", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(shas, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(shas)} traces in {GOLDEN}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=tuple(WORKLOADS))
    mode.add_argument("--heldout", action="store_true",
                      help=f"replay every workload at seed {HELDOUT_SEED}")
    mode.add_argument("--record-golden", action="store_true",
                      help=f"record trace hashes at seed {DEFAULT_SEED}")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a natural number")
    check_program()
    if args.heldout:
        return heldout(HELDOUT_SEED if args.seed is None else args.seed)
    if args.record_golden:
        return record_golden()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return benchmark(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

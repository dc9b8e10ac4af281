import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leftre
from leftre import cli
from leftre.cli import CONSTRUCTIONS, load_numbering, main, save_numbering
from leftre.core import Horizon
from leftre.fixtures import random_catalog

HZ = Horizon(48, 96)
SRC = str(Path(leftre.__file__).resolve().parent.parent)


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv, timeout=60):
    """The CLI in a child process, killed if it outlives `timeout` seconds."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "leftre.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


class TestRun:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_every_construction_green(self, construction, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = run_cli("run", construction, "--stages", "48", "--bits", "96",
                       "--seed", "1", "--out", str(out))
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        verdict = lines[-1]
        assert verdict["type"] == "verdict" and verdict["ok"]

    def test_unknown_construction(self, capsys):
        assert run_cli("run", "--stages", "8", "--bits", "8") == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "markers", "seed": 3,
                                   "stages": 48, "bits": 96}))
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0

    @pytest.mark.parametrize("construction", ["gazebo", "selfref", "diagonal",
                                              "generic", "zulu-min"])
    def test_replay_determinism(self, construction, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("run", construction, "--stages", "48", "--bits",
                           "96", "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_header_flushed_before_runner(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.jsonl"
        seen = []

        def stub(hz, seed, params, trace):
            seen.append(out.read_text())
            return {"stub": True}

        monkeypatch.setitem(cli.RUNNERS, "gazebo", stub)
        assert run_cli("run", "gazebo", "--stages", "48", "--bits", "96",
                       "--seed", "1", "--out", str(out)) == 0
        assert seen[0].endswith("\n")
        assert json.loads(seen[0]) == {"bits": 96, "construction": "gazebo",
                                       "seed": 1, "stages": 48,
                                       "type": "header"}

    @pytest.mark.parametrize("construction",
                             ["gazebo", "selfref", "bambam", "excise"])
    @pytest.mark.parametrize("horizon", [("8", "16"), ("10", "512")],
                             ids=["8x16", "10x512"])
    def test_catalog_horizon_too_short_exits_2(self, construction, horizon):
        stages, bits = horizon
        done = run_cli_process("run", construction, "--stages", stages,
                               "--bits", bits, "--seed", "1")
        assert done.returncode == 2
        assert done.stderr.startswith("error: random catalog needs more than")
        assert "Traceback" not in done.stderr

    def test_too_few_distinct_finals_exits_2(self):
        # 11 stages leave one stage for a move, and 4 bits with a zero head
        # give only 4 distinct finals, fewer than the catalog's 5.
        done = run_cli_process("run", "gazebo", "--stages", "11", "--bits", "4",
                               "--seed", "1")
        assert done.returncode == 2
        assert "distinct finals" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv,message", [
        # one even entry per stage needs 2 * 300 - 1 bits
        (("bambam", "--stages", "300", "--bits", "512"), "599 bits"),
        # the 8-bit protected head leaves no position for a move
        (("lowerfarm", "--bits", "8"), "protected head"),
        # checkpoint 40 past the switch string needs 42 bits
        (("selfref", "--bits", "8"), "needs 42 bits"),
        (("selfref", "--bits", "41"), "needs 42 bits"),
        # a bit-entry history has no stage after 0 to enter a bit at
        (("zulu-min", "--stages", "1"), "at least 2 stages"),
        (("zulu-max", "--stages", "1"), "at least 2 stages"),
        (("tilde-a", "--stages", "1"), "at least 2 stages"),
    ], ids=["bambam-300x512", "lowerfarm-8", "selfref-8", "selfref-41",
            "zulu-min-1", "zulu-max-1", "tilde-a-1"])
    def test_horizon_too_small_exits_2(self, argv, message):
        done = run_cli_process("run", *argv)
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr


class TestValidate:
    def test_round_trip_and_verdicts(self, tmp_path, capsys):
        nu = random_catalog(4, 3, HZ)
        path = tmp_path / "nu.json"
        save_numbering(nu, str(path))
        loaded = load_numbering(str(path))
        assert loaded.index_range == 3
        for e in range(3):
            assert loaded.at(e).final_prefix() == nu.at(e).final_prefix()
        assert run_cli("validate", str(path)) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary == {"indices": 3, "ok": True, "type": "summary"}

    def test_injected_violation_located(self, tmp_path, capsys):
        nu = random_catalog(4, 2, HZ)
        path = tmp_path / "nu.json"
        save_numbering(nu, str(path))
        obj = json.loads(path.read_text())
        # Force a lex decrease in index 1 at stage 5 by blanking the prefix.
        obj["processes"][1][5] = "0" * HZ.bits
        path.write_text(json.dumps(obj))
        assert run_cli("validate", str(path)) == 1
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        bad = [r for r in rows if r.get("index") == 1][0]
        assert not bad["ok"] and bad["stage"] is not None

    def test_empty_numbering_ok(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"horizon": {"stages": 4, "bits": 4}, "processes": []}))
        assert run_cli("validate", str(path)) == 0

    @pytest.mark.parametrize("rows,message", [
        (["1", "11"], "stage 0 prefix has 1 bits, expected 8"),
        (["00000001", "000000011"], "stage 1 prefix has 9 bits, expected 8"),
    ], ids=["short", "long"])
    def test_row_of_wrong_length_exits_2(self, rows, message, tmp_path, capsys):
        # A short row is not right-aligned into the horizon: it is an error.
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(
            {"horizon": {"stages": 2, "bits": 8}, "processes": [rows]}))
        assert run_cli("validate", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli("validate", str(path)) == 2


class TestOracle:
    def test_csv_shape_and_reflexivity(self, tmp_path, capsys):
        nu = random_catalog(4, 3, HZ)
        path = tmp_path / "nu.json"
        save_numbering(nu, str(path))
        assert run_cli("oracle", str(path), "--mode", "lex") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,stage"
        pairs = {tuple(map(int, l.split(",")[:2])) for l in lines[1:]}
        for i in range(3):
            assert (i, i) in pairs

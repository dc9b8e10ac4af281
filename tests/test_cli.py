import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import leftre
from leftre import cli, relations
from leftre.cli import CONSTRUCTIONS, load_numbering, main, save_numbering
from leftre.core import Horizon, InternalInvariantError
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

    def test_construction_argument_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "markers", "stages": 48,
                                   "bits": 96}))
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "split", "--config", str(cfg),
                       "--out", str(out)) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["construction"] == "split"

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

    def test_internal_invariant_is_a_failed_verdict(self, tmp_path,
                                                    monkeypatch, capsys):
        out = tmp_path / "trace.jsonl"

        def stub(hz, seed, params, trace):
            raise InternalInvariantError("decoded {1} but the schedule holds {2}")

        monkeypatch.setitem(cli.RUNNERS, "inc-decode", stub)
        assert run_cli("run", "inc-decode", "--stages", "48", "--bits", "96",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            "error: decoded {1} but the schedule holds {2}\n"
        verdict = json.loads(out.read_text().splitlines()[-1])
        assert verdict == {"checks": {"internal-invariant": False},
                           "ok": False, "type": "verdict"}

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
        # the complement of the enumerated elements has no second position
        (("maxsep", "--bits", "1"), "at least 3 bits, got 1"),
        (("maxsep", "--bits", "2"), "at least 3 bits, got 2"),
        # the late boundary's checkpoint 20 lies past the horizon
        (("excise", "--stages", "64", "--bits", "16"), "needs 21 bits"),
        # the fixed set {0, 2, 4} reaches past the horizon
        (("lowerfarm", "--stages", "8", "--bits", "4"), "needs 5 bits"),
        # every catalog index is tracked, and the evens have too few zeros
        (("diagonal", "--stages", "1", "--bits", "3"), "fewer than 2 zeros"),
        # y = 8 codes at position 17, past a 16-bit horizon
        (("inc-decode", "--bits", "16", {"x": 9}),
         "decoding below 9 needs 18 bits, got 16"),
        (("inc-decode", {"x": -1}), "x must be at least 0, got -1"),
        # count_h reads the snapshot after stage 26 at marker 19
        (("markers", "--stages", "26"),
         "stage horizon too small for the marker construction"),
    ], ids=["bambam-300x512", "lowerfarm-8", "selfref-8", "selfref-41",
            "zulu-min-1", "zulu-max-1", "tilde-a-1", "maxsep-1", "maxsep-2",
            "excise-64x16", "lowerfarm-8x4", "diagonal-1x3", "inc-decode-x9",
            "inc-decode-x-1", "markers-26"])
    def test_horizon_too_small_exits_2(self, argv, message, tmp_path):
        argv = list(argv)
        if isinstance(argv[-1], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"params": argv.pop()}))
            argv += ["--config", str(cfg)]
        done = run_cli_process("run", *argv)
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr


class TestRunParams:
    """A config or run parameter of the wrong shape, type or range exits 2
    with a message, never with a traceback or a verdict."""

    @pytest.mark.parametrize("config,message", [
        ([], "config must be a JSON object, got []"),
        ({"params": [1]}, "params must be a JSON object, got [1]"),
        ({"stages": "3"}, 'stages must be an integer, got "3"'),
        ({"construction": "gazebo", "params": {"size": "3"}},
         'size must be an integer, got "3"'),
        ({"construction": "gazebo", "params": {"size": 0}},
         "size must be at least 1, got 0"),
        ({"construction": "inc-decode", "params": {"x": True}},
         "x must be an integer, got true"),
        ({"construction": "generic", "params": {"levels": 0}},
         "levels must be at least 2, got 0"),
        ({"construction": "lowerfarm", "params": {"fixed": [0, "2"]}},
         'fixed must be a list of integers, got [0, "2"]'),
        ({"construction": "lowerfarm", "params": {"fixed": [-1]}},
         "fixed position -1 is negative"),
        ({"construction": "excise", "params": {"checkpoint": -3}},
         "boundary checkpoint -3 is negative"),
    ] + [({"construction": c, "params": {"n_cap": n}},
          f"n_cap must be {bound}, got {n}")
         for c in ("zulu-min", "zulu-max", "tilde-a")
         for n, bound in ((-1, "at least 1"), (0, "at least 1"),
                          (14, "at most 13"))] + [
        ({"construction": "zulu-min", "params": {"ncap": 1}},
         'unknown key "ncap" in zulu-min params; it reads n_cap'),
        ({"construction": "split", "params": {"n_cap": 1}},
         'unknown key "n_cap" in split params; it reads none'),
        ({"stage": 16}, 'unknown key "stage" in the config; it reads '
                        'construction, stages, bits, seed, params'),
    ] + [({"construction": "generic", "params": {"bits": b}},
          f"bits must be at least 1, got {b}") for b in (0, -1)])
    def test_bad_value_exits_2(self, config, message, tmp_path, capsys):
        if isinstance(config, dict):
            config = {"stages": 64, "bits": 128, **config}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "trace.jsonl"
        # A construction named on the command line would override the
        # config's, so markers is named only when the config names none.
        named = [] if "construction" in config else ["markers"]
        assert run_cli("run", *named, "--config", str(cfg),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() or "verdict" not in out.read_text()

    @pytest.mark.parametrize("construction,key", [
        (c, k) for c, keys in cli.PARAMS.items() for k in keys])
    def test_every_listed_param_is_read(self, construction, key, tmp_path,
                                        capsys):
        # A listed key that the runner did not read would exit 0 here.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {key: "wrong"}}))
        assert run_cli("run", construction, "--stages", "64", "--bits", "128",
                       "--config", str(cfg), "--out",
                       str(tmp_path / "trace.jsonl")) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("flag", ["--stages", "--bits"])
    def test_zero_horizon_flag_exits_2(self, flag, capsys):
        # A zero flag is not read as "absent" and replaced by a default.
        assert run_cli("run", "markers", flag, "0") == 2
        assert capsys.readouterr().err == \
            "error: horizon must be positive in both dimensions\n"

    def test_inc_decode_fills_the_horizon(self, tmp_path):
        # y = x - 1 codes at 2x - 1, the last position of a 2x-bit horizon.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"x": 8}}))
        assert run_cli("run", "inc-decode", "--bits", "16", "--config",
                       str(cfg), "--out", str(tmp_path / "trace.jsonl")) == 0

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(
        st.tuples(st.sampled_from(["zulu-min", "zulu-max", "tilde-a"]),
                  st.fixed_dictionaries({"n_cap": st.integers(-2, 4)})),
        st.tuples(st.just("inc-decode"),
                  st.fixed_dictionaries({"x": st.integers(-2, 80)})),
        st.tuples(st.just("gazebo"),
                  st.fixed_dictionaries({"size": st.integers(0, 9)})),
        st.tuples(st.just("lowerfarm"), st.fixed_dictionaries({"fixed": st.lists(
            st.integers(-3, 130), min_size=1, max_size=3)})),
        st.tuples(st.just("excise"),
                  st.fixed_dictionaries({"checkpoint": st.integers(-3, 30)})),
    ), st.integers(0, 1000))
    def test_edge_params_exit_0_or_2(self, tmp_path_factory, run, seed):
        construction, params = run
        cfg = tmp_path_factory.mktemp("params") / "cfg.json"
        cfg.write_text(json.dumps({"params": params}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("run", construction, "--stages", "64", "--bits",
                           "128", "--seed", str(seed), "--config", str(cfg))
        assert code in (0, 2), err.getvalue()


class TestSmallHorizonSweep:
    """Any construction on any horizon from 1x1 to 64x128 ends in a verdict
    (exit 0) or a typed error (exit 2).  No fixture here fails a check, so an
    exit 1 would be a horizon too small read as a failed check."""

    @settings(deadline=None, max_examples=600)
    @given(st.sampled_from(CONSTRUCTIONS), st.integers(1, 64),
           st.integers(1, 128), st.integers(0, 1000))
    def test_exit_0_or_2(self, construction, stages, bits, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("run", construction, "--stages", str(stages),
                           "--bits", str(bits), "--seed", str(seed))
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue().splitlines()[-1])["type"] == \
                "verdict"


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

    @pytest.mark.parametrize("command", [["validate"], ["oracle"]])
    @pytest.mark.parametrize("obj,message", [
        ({}, "numbering file has no horizon"),
        ([1, 2], "numbering file must be a JSON object"),
        ({"horizon": {"stages": "2", "bits": 4}, "processes": []},
         'stages must be an integer, got "2"'),
        ({"horizon": {"stages": 2, "bits": 4}, "processes": [[1, 2]]},
         "processes must be a list of lists of strings"),
        ({"horizon": {"stages": 2, "bits": 4}, "processes": "0011"},
         "processes must be a list of lists of strings"),
        ({"horizon": {"stages": 2, "bits": 4},
          "processes": [["0000", "0011"], ["0000", "0a11"]]},
         "process 1: stage 1 prefix string must consist of 0s and 1s"),
    ], ids=["empty", "list", "stages-string", "int-rows", "string-processes",
            "bad-character"])
    def test_malformed_file_exits_2(self, command, obj, message, tmp_path,
                                    capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli(*command, str(path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    # sha256 of the saved numbering file and of each mode's CSV, recorded
    # from the tuple-per-pair oracles that the bitset oracles replaced.  The
    # follower numbering has many tied all-ones finals.
    @pytest.mark.parametrize("numbering,file_sha,mode,csv_sha", [
        ("catalog", "dc253543bdbabc6c3eb293f773c7d50a5e7250b1a7715bc7ae394ecd7a65a2a1",
         "lex", "42a1975f63fc978c05f8d89014933ea9ce750f7e6812e44fcb86d692fa07d147"),
        ("catalog", "dc253543bdbabc6c3eb293f773c7d50a5e7250b1a7715bc7ae394ecd7a65a2a1",
         "inc", "33985ada767c37a28c728898d5e41e166635c37bc2ac29510784b932b1c8042b"),
        ("followers", "6c30bab178b9602818580bd26af72b8be0942f9a23ceeb99d05f67b43fa718a8",
         "lex", "3689668d3000dfffc8b38239b7cf2e1c3efac4b727a6c1fd637f1ad6e0bc6149"),
        ("followers", "6c30bab178b9602818580bd26af72b8be0942f9a23ceeb99d05f67b43fa718a8",
         "inc", "1de2a9c8cb29a52819a752a557eaee13d374a55167720324f369fcd380ff0785"),
    ])
    def test_csv_bytes_pinned(self, numbering, file_sha, mode, csv_sha,
                              tmp_path, capsys):
        if numbering == "catalog":
            nu = random_catalog(4, 8, HZ)
        else:
            nu, _ = relations.gazebo_run(random_catalog(4, 5, HZ, "gz"))
        path = tmp_path / "nu.json"
        save_numbering(nu, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
        assert run_cli("oracle", str(path), "--mode", mode) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == csv_sha


class TestGazeboWitness:
    """A failed gazebo check names its witness on stderr; the verdict line
    keeps its bytes."""

    def run_gazebo(self, capsys):
        code = run_cli("run", "gazebo", "--stages", "48", "--bits", "96",
                       "--seed", "1")
        out, err = capsys.readouterr()
        return code, out.splitlines()[-1], err

    def test_persistence_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(relations, "check_persistence",
                            lambda oracle, alpha: ((3, 7), 12))
        code, verdict, err = self.run_gazebo(capsys)
        assert code == 1
        assert err == ("persistence: emitted pair (3, 7) compares greater at "
                       "stage 12\n")
        assert verdict == json.dumps({"checks": {
            "matches-bruteforce": True, "persistence": False,
            "validator": True}, "ok": False, "type": "verdict"}, sort_keys=True)

    @pytest.mark.parametrize("flip,holder", [((1, 1), "follower"),
                                             ((0, 40), "brute-force")])
    def test_oracle_mismatch(self, flip, holder, monkeypatch, capsys):
        # Drop the reflexive pair (1, 1) from the reference oracle, or add
        # (0, 40) to it, where follower 0 is all-ones and 40 is live: a pair
        # only the follower or only the reference holds.
        real = relations.lex_oracle_bruteforce

        def stub(alpha):
            oracle = real(alpha)
            i, j = flip
            assert oracle.has(i, j) == (holder == "follower")
            rows = list(oracle.rows)
            rows[i] ^= 1 << j
            return relations.RelationOracle(tuple(rows))

        monkeypatch.setattr(relations, "lex_oracle_bruteforce", stub)
        code, verdict, err = self.run_gazebo(capsys)
        i, j = flip
        assert code == 1
        assert err == (f"matches-bruteforce: left side {i} first differs at "
                       f"right side {j}, held only by the {holder} oracle\n")
        assert verdict == json.dumps({"checks": {
            "matches-bruteforce": False, "persistence": True,
            "validator": True}, "ok": False, "type": "verdict"}, sort_keys=True)

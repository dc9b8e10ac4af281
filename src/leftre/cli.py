"""Batch driver: run a construction, validate a file, or dump an oracle.

One construction per invocation; everything is driven by a JSON config plus
a seed, and all outputs (JSON-lines traces, CSV oracle dumps) are canonical,
so identical invocations produce byte-identical files.  Each construction's
runner lives in the module of its construction; this module parses the
arguments, writes the trace and dispatches to the runner.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from types import ModuleType
from typing import Callable, Optional, TextIO

from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   InternalInvariantError, Numbering, Prefix, UsageError,
                   read_param, validate_left_re)


def _load_on_first_use(name: str) -> ModuleType:
    """The module leftre.<name>, whose body runs when a caller first reads
    one of its attributes, so a run executes only the modules it uses.

    The module object sits in sys.modules and on the package from the start,
    so every importer (and anything that looks the module up there) shares
    it; a module already in sys.modules is reused as it is.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


diagonal, fixtures, genericity, markers, relations, selfref, zulu = map(
    _load_on_first_use, ("diagonal", "fixtures", "genericity", "markers",
                         "relations", "selfref", "zulu"))


def save_numbering(nu: Numbering, path: str) -> None:
    hz = nu.horizon
    obj = {
        "horizon": {"stages": hz.stages, "bits": hz.bits},
        "processes": [[nu.at(e).prefix(s).to_string() for s in range(hz.stages)]
                      for e in range(nu.index_range)],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_numbering(path: str) -> Numbering:
    with open(path) as fh:
        obj = json.load(fh)
    if type(obj) is not dict:
        raise UsageError("numbering file must be a JSON object")
    horizon = read_param(obj, "horizon", {})
    for key, holder in (("horizon", obj), ("stages", horizon),
                        ("bits", horizon), ("processes", obj)):
        if key not in holder:
            raise UsageError(f"numbering file has no {key}")
    hz = Horizon(read_param(horizon, "stages", 1, minimum=1),
                 read_param(horizon, "bits", 1, minimum=1))
    table = obj["processes"]
    if type(table) is not list or any(type(rows) is not list or any(
            type(r) is not str for r in rows) for rows in table):
        raise UsageError("processes must be a list of lists of strings")
    processes = []
    for i, rows in enumerate(table):
        if len(rows) != hz.stages:
            raise UsageError(f"process {i}: {len(rows)} stages, expected {hz.stages}")
        prefixes = []
        for s, r in enumerate(rows):
            try:
                p = Prefix.from_string(r)
            except UsageError as e:
                raise UsageError(f"process {i}: stage {s} {e}") from None
            if p.length != hz.bits:
                raise UsageError(f"process {i}: stage {s} prefix has "
                                 f"{p.length} bits, expected {hz.bits}")
            prefixes.append(p)
        processes.append(ApproxProcess(lambda s: prefixes[s].value, hz,
                                       f"file-{i}"))
    return Numbering(processes)


class TraceWriter:
    def __init__(self, out: TextIO):
        self.out = out

    def line(self, obj: dict) -> None:
        self.out.write(json.dumps(obj, sort_keys=True))
        self.out.write("\n")


# Each runner is looked up in its construction's module only when called, so
# a run executes only the modules its construction uses; a runner takes the
# run's horizon, seed, params and trace writer and returns its named checks.
RUNNERS: dict[str, Callable] = {
    "markers": lambda *a: markers.run_markers(*a),
    "generic": lambda *a: genericity.run_generic(*a),
    "selfref": lambda *a: selfref.run_selfref(*a),
    "bambam": lambda *a: selfref.run_bambam(*a),
    "zulu-min": lambda *a: zulu.run_zulu(*a, True),
    "zulu-max": lambda *a: zulu.run_zulu(*a, False),
    "maxsep": lambda *a: zulu.run_maxsep(*a),
    "split": lambda *a: zulu.run_split(*a),
    "lowerfarm": lambda *a: zulu.run_lowerfarm(*a),
    "tilde-a": lambda *a: zulu.run_tilde(*a),
    "inc-decode": lambda *a: relations.run_inc_decode(*a),
    "gazebo": lambda *a: relations.run_gazebo(*a),
    "diagonal": lambda *a: diagonal.run_diagonal(*a),
    "excise": lambda *a: selfref.run_excise(*a),
}
CONSTRUCTIONS = tuple(RUNNERS)
CONFIG_KEYS = ("construction", "stages", "bits", "seed", "params")
# The params keys each runner reads; the other constructions read none.
PARAMS = {"zulu-min": ("n_cap",), "zulu-max": ("n_cap",), "tilde-a": ("n_cap",),
          "gazebo": ("size",), "inc-decode": ("x",),
          "generic": ("bits", "levels"), "lowerfarm": ("fixed",),
          "excise": ("checkpoint",)}


def _reject_unknown(obj: dict, allowed: tuple, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key {json.dumps(unknown[0])} in {what}; "
                         f"it reads {', '.join(allowed) or 'none'}")


def cmd_run(args: argparse.Namespace) -> int:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if type(config) is not dict:
            raise UsageError(f"config must be a JSON object, got "
                             f"{json.dumps(config)}")
        _reject_unknown(config, CONFIG_KEYS, "the config")
    construction = (args.construction if args.construction is not None
                    else config.get("construction"))
    if construction not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {construction!r}; "
                         f"choose from {', '.join(CONSTRUCTIONS)}")
    hz = Horizon(read_param(config, "stages", 256) if args.stages is None
                 else args.stages,
                 read_param(config, "bits", 512) if args.bits is None
                 else args.bits)
    seed = args.seed if args.seed is not None else read_param(config, "seed", 0)
    params = read_param(config, "params", {})
    _reject_unknown(params, PARAMS.get(construction, ()),
                    f"{construction} params")
    # Built now: once memory has run out, formatting it could fail again.
    args.out_of_memory = (f"error: out of memory running {construction} at "
                          f"{hz.stages} stages x {hz.bits} bits")
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        trace = TraceWriter(out)
        trace.line({"bits": hz.bits, "construction": construction, "seed": seed,
                    "stages": hz.stages, "type": "header"})
        out.flush()  # a stuck run still shows which construction it is in
        try:
            checks = RUNNERS[construction](hz, seed, params, trace)
        except InternalInvariantError as exc:
            # A broken invariant is a failed check with a verdict, not a crash.
            print(f"error: {exc}", file=sys.stderr)
            checks = {"internal-invariant": False}
        ok = all(checks.values())
        trace.line({"checks": checks, "ok": ok, "type": "verdict"})
    finally:
        if args.out:
            out.close()
    return 0 if ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    nu = load_numbering(args.path)
    all_ok = True
    for e in range(nu.index_range):
        r = validate_left_re(nu.at(e))
        all_ok = all_ok and r.ok
        print(json.dumps({"index": e, "ok": r.ok, "position": r.position,
                          "reason": r.reason, "stage": r.stage}, sort_keys=True))
    print(json.dumps({"indices": nu.index_range, "ok": all_ok, "type": "summary"},
                     sort_keys=True))
    return 0 if all_ok else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    nu = load_numbering(args.path)
    oracle = (relations.inc_oracle_bruteforce(nu) if args.mode == "inc"
              else relations.lex_oracle_bruteforce(nu))
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("i,j,stage\n")
        for row in oracle.csv_rows():
            out.write(row + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftre",
        description="Finite-horizon constructions over lex-monotone set "
                    "approximations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one construction and emit a trace")
    run_p.add_argument("construction", nargs="?", choices=CONSTRUCTIONS)
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--stages", type=int)
    run_p.add_argument("--bits", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", help="trace output path (default stdout)")
    run_p.set_defaults(fn=cmd_run)

    val_p = sub.add_parser("validate", help="validate a numbering file")
    val_p.add_argument("path")
    val_p.set_defaults(fn=cmd_validate)

    orc_p = sub.add_parser("oracle", help="dump a brute-force relation oracle")
    orc_p.add_argument("path", help="numbering file")
    orc_p.add_argument("--mode", choices=("inc", "lex"), default="inc")
    orc_p.add_argument("--out", help="CSV output path (default stdout)")
    orc_p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.out_of_memory = f"error: out of memory in {args.command}"
    try:
        return args.fn(args)
    except (UsageError, InputError, CapacityError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(args.out_of_memory, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch driver: run a construction, validate a file, or dump an oracle.

One construction per invocation; everything is driven by a JSON config plus
a seed, and all outputs (JSON-lines traces, CSV oracle dumps) are canonical,
so identical invocations produce byte-identical files.  Each construction's
runner lives in the module of its construction; this module parses the
arguments, writes the trace and dispatches to the runner.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from types import ModuleType, SimpleNamespace
from typing import Callable, Optional, TextIO

from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   InternalInvariantError, Numbering, Prefix, UsageError,
                   read_param, validate_left_re)


def _load_on_first_use(name: str) -> ModuleType:
    """The module leftre.<name>, whose body runs when a caller first reads
    one of its attributes, so a run executes only the modules it uses.  It
    sits in sys.modules and on the package from the start, so every importer
    and every lookup there shares it; one already there is reused as it is."""
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


def cmd_run(args: SimpleNamespace) -> int:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if type(config) is not dict:
            raise UsageError(f"config must be a JSON object, got "
                             f"{json.dumps(config)}")
        _reject_unknown(config, CONFIG_KEYS, "the config")
    config.update((key, getattr(args, key)) for key in CONFIG_KEYS[:4]
                  if getattr(args, key) is not None)  # flags override the config
    construction = config.get("construction")
    if construction not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {construction!r}; "
                         f"choose from {', '.join(CONSTRUCTIONS)}")
    hz = Horizon(read_param(config, "stages", 256), read_param(config, "bits", 512))
    seed = read_param(config, "seed", 0)
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


def cmd_validate(args: SimpleNamespace) -> int:
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


def cmd_oracle(args: SimpleNamespace) -> int:
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


# Each command's function, its positional argument (in brackets when it may
# be left out) and its options.  An option's value is read by its function,
# or must be one of its tuple of values, the first of which is the default.
COMMANDS = {
    "run": (cmd_run, "[CONSTRUCTION]", {"config": str, "stages": int,
                                        "bits": int, "seed": int, "out": str}),
    "validate": (cmd_validate, "PATH", {}),
    "oracle": (cmd_oracle, "PATH", {"mode": ("inc", "lex"), "out": str}),
}


def usage() -> str:
    return "usage: " + "\n       ".join(" ".join([f"leftre {command} {pos}"] + [
        f"[--{name} {'|'.join(r) if type(r) is tuple else r.__name__.upper()}]"
        for name, r in options.items()]) for command, (_, pos, options)
        in COMMANDS.items()) + f"\nconstructions: {' '.join(CONSTRUCTIONS)}"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its function and its arguments, as COMMANDS reads them.
    `-h` or `--help` anywhere asks for the usage; any other bad command line
    raises UsageError with the usage text."""
    def bad(message: str) -> UsageError:
        return UsageError(f"{message}\n{usage()}")
    if any(a == "-h" or len(a) > 2 and "--help".startswith(a) for a in argv):
        return SimpleNamespace(command="help", fn=lambda _: print(usage()) or 0)
    if not argv or argv[0] not in COMMANDS:
        raise bad(f"choose a command from {', '.join(COMMANDS)}")
    (fn, positional, options), rest, given = COMMANDS[argv[0]], iter(argv[1:]), []
    args = SimpleNamespace(command=argv[0], fn=fn, **{
        name: r[0] if type(r) is tuple else None for name, r in options.items()})
    for arg in rest:  # `--name value` or `--name=value`; the last one wins
        if not arg.startswith("-"):
            given.append(arg)
            continue
        name, eq, value = arg.partition("=")  # a name may be cut to a prefix
        matches = [o for o in options if len(name) > 2 and f"--{o}".startswith(name)]
        if len(matches) != 1:
            raise bad(f"{'ambiguous' if matches else 'unknown'} option {name}")
        option, read = matches[0], options[matches[0]]
        if not eq and (value := next(rest, "-"))[:1] == "-" and not value[1:].isdigit():
            raise bad(f"--{option} needs a value")  # not the next option
        try:
            setattr(args, option, read[read.index(value)] if type(read) is tuple
                    else read(value))
        except ValueError:
            kind = " or ".join(read) if type(read) is tuple else "an integer"
            raise bad(f"--{option} must be {kind}, got {value!r}") from None
    if len(given) > 1 or not given and positional[0] != "[":
        raise bad(f"{args.command} takes one {positional}, got {len(given)}")
    setattr(args, positional.strip("[]").lower(), given[0] if given else None)
    return args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        args.out_of_memory = f"error: out of memory in {args.command}"
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

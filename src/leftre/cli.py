"""Batch driver: run a construction, validate a file, or dump an oracle.

One construction per invocation; everything is driven by a JSON config plus
a seed, and all outputs (JSON-lines traces, CSV oracle dumps) are canonical,
so identical invocations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from itertools import islice
from types import ModuleType
from typing import Callable, Optional, TextIO

from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   InternalInvariantError, Numbering, Prefix, Schedule,
                   UsageError, finite_set_process, index_set_estimate,
                   limit_estimate, validate_left_re,
                   validate_monotone_membership)


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

JSON_TYPES = {int: "an integer", list: "a list of integers", dict: "a JSON object"}


def read_param(obj: dict, name: str, default, minimum: Optional[int] = None,
               maximum: Optional[int] = None):
    """obj[name], or `default` when absent.

    Raises UsageError when the value's JSON type is not the default's (a
    list default takes a list of ints), or when an int lies outside
    [minimum, maximum].
    """
    value = obj.get(name, default)
    if type(value) is not type(default) or (
            type(value) is list and any(type(v) is not int for v in value)):
        raise UsageError(f"{name} must be {JSON_TYPES[type(default)]}, got "
                         f"{json.dumps(value)}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{name} must be at most {maximum}, got {value}")
    return value


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


def _process_rows(p: ApproxProcess, trace: TraceWriter) -> None:
    """Every 16th stage's prefix, then the last stage's."""
    S = p.horizon.stages
    for s in range(0, S, 16):
        trace.line({"prefix": p.prefix(s).to_string(), "stage": s, "type": "stage"})
    trace.line({"prefix": p.prefix(S - 1).to_string(), "stage": S - 1,
                "type": "stage"})


def _run_markers(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    # count_h reads the snapshot after stage x + 1 at each final marker x,
    # and the last marker ends past the largest settled value v, so the
    # horizon needs v + 3 stages, as generic's marker build does.
    if max(fixtures.settle_plus5()) + 2 >= hz.stages:
        raise CapacityError("stage horizon too small for the marker construction")
    m = fixtures.marker_fixture(hz)
    finals = m.final_markers(20)
    trace.line({"markers": finals, "type": "final-markers"})
    checks = {
        "dominates": all(finals[n] > n + 5 for n in range(20)),
        "retrace": all(markers.retrace(m, finals[n + 1]) == finals[n]
                       for n in range(19)),
        "count": all(markers.count_h(m, finals[n]) == n for n in range(20)),
        # The marker set is complement-enumerable: membership only ever moves
        # 1 -> 0, so the down-direction validator is the right contract here.
        "complement-monotone": bool(validate_monotone_membership(
            m.membership_process(), "down")),
    }
    return checks


def _run_generic(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    Ws = fixtures.requirement_fixture()
    bits = read_param(params, "bits", 14, minimum=1)
    levels = read_param(params, "levels", 6, minimum=2)
    plan = genericity.build_generic_plan(Ws, bits, levels, hz)
    trace.line({"forced": plan.A.to_string(), "f": plan.f_values, "type": "plan"})
    free = plan.marker_free_intervals(levels)
    report = genericity.verify_indifference(plan.A, plan.markers, Ws, Ws.count - 1)
    trace.line({"free-intervals": free, "type": "intervals",
                "variants": report.variants_checked})
    satisfied = all(
        genericity.prefix_meets_requirement(plan.A, Ws.strings_at(e), bits)
        for e in range(Ws.count))
    return {"forced-satisfies": satisfied, "indifference": report.ok}


def _run_selfref(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    plan = fixtures.selfref_fixture(seed, hz)
    beta = selfref.make_into_itself(plan)
    est = index_set_estimate(beta, plan.classC)
    a_set = plan.A.final_prefix().members() & frozenset(range(plan.indices))
    removed = frozenset(e for e in range(plan.indices)
                        if plan.I.removed(e, hz.stages - 1))
    trace.line({"a": sorted(a_set), "index-set": sorted(est),
                "removed": sorted(removed), "type": "sets"})
    surviving = frozenset(range(plan.indices)) - removed
    sym = (est ^ a_set)
    checks = {
        "delta-in-surviving": sym <= surviving,
        "outside-matches": all((e in est) == (e in a_set) for e in removed),
        "validator": all(bool(r) for r in beta.validate()),
    }
    return checks


def _run_bambam(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    A = fixtures.bambam_infinite_process(hz)
    a_members = A.final_prefix().members()
    R = [b for b in range(1, hz.bits, 2)][:6]
    base = fixtures.random_catalog(seed, 6, hz, "bambam-base")
    gamma = selfref.singleton_numbering_infinite(A, R, base)
    target, _ = limit_estimate(A)
    est = index_set_estimate(gamma, selfref.limit_equals(target))
    expected = frozenset(e for e in range(gamma.index_range) if e in a_members)
    trace.line({"expected": sorted(expected), "index-set": sorted(est),
                "type": "sets"})
    return {"index-set-exact": est == expected,
            "validator": all(bool(r) for r in gamma.validate())}


def _zulu_state(hz: Horizon, seed: int, params: dict) -> zulu.ZuluState:
    # A member marker of I_14 has more than 4300 digits, more than Python
    # writes for an int in a JSON trace line.
    n_cap = read_param(params, "n_cap", 3, minimum=1, maximum=13)
    omega = fixtures.omega_fixture(seed, hz, top_bit=min(2 ** n_cap - 1, 32))
    return zulu.ZuluState(omega, zulu.BlockLayout(n_cap))


def _run_zulu(hz: Horizon, seed: int, params: dict, trace: TraceWriter,
              minimal: bool) -> dict:
    state = _zulu_state(hz, seed, params)
    A = zulu.build_minimal(state, hz)
    B = zulu.build_maximal(state, hz)
    for s in range(0, hz.stages, max(1, hz.stages // 16)):
        trace.line({"stage": s, "type": "markers", "a": list(state.markers(s))})
    target = A if minimal else B
    report = zulu.btt_check(A, B, state.layout)
    return {"validator": bool(validate_left_re(target)), "btt": report.ok}


def _run_maxsep(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    if hz.bits < 3:
        raise CapacityError(
            f"a strict superset needs at least 3 bits, got {hz.bits}: the "
            f"complement has no second position to add")
    A = fixtures.one_per_stage_schedule(seed, hz)
    E = zulu.maxsep_superset(A, hz)
    _process_rows(E, trace)
    final_a = A.final_members()
    final_e = E.final_prefix().members()
    comp = [x for x in range(hz.bits) if x not in final_a]
    audit = all((x in final_e) == (r % 2 == 1) for r, x in enumerate(comp))
    return {"validator": bool(validate_left_re(E)),
            "strict-superset": final_a < final_e, "every-second": audit}


def _run_split(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    odds = fixtures.one_per_stage_schedule(seed, Horizon(hz.stages, hz.bits // 2))
    A = Schedule.from_pairs([(2 * x + 1, s) for x, s in odds.entries]
                            ).as_process(hz, "odd-stream")
    E = zulu.split_subset(A)
    _process_rows(E, trace)
    members = sorted(A.final_prefix().members())
    e_final = E.final_prefix().members()
    alternate = all((m in e_final) == (k % 2 == 0) for k, m in enumerate(members))
    return {"validator": bool(validate_left_re(E)), "alternation": alternate}


def _run_lowerfarm(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    B = fixtures.random_leftre_process(seed, hz, "lowerfarm-b", head_zeros=8)
    R = frozenset(read_param(params, "fixed", [0, 2, 4]))
    E = zulu.lowerfarm_witness(B, R)
    _process_rows(E, trace)
    return {"validator": bool(validate_left_re(E)),
            "contains-fixed": R <= E.final_prefix().members()}


def _run_tilde(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    state = _zulu_state(hz, seed, params)
    A = zulu.build_minimal(state, hz)
    W = Schedule.from_pairs([(1, 2), (3, 5)])
    T = zulu.tilde_set(A, W, state.layout)
    _process_rows(T, trace)
    return {"validator": bool(validate_left_re(T))}


def _decode_family(K: Schedule, x: int, hz: Horizon) -> Numbering:
    if 2 * x > hz.bits:
        # y = x - 1 codes at 2x - 1, past the horizon, where no candidate
        # can show it, so the decoding search would run out of stages.
        raise CapacityError(f"decoding below {x} needs {2 * x} bits, got "
                            f"{hz.bits}")
    odds = finite_set_process(range(1, hz.bits, 2), hz, "odds")
    B = relations.b_from_k(K, hz)
    final_k = K.final_members()
    cands = [finite_set_process((2 * y + 1 for y in range(x1)
                                 if y not in final_k), hz, f"cand-{x1}")
             for x1 in range(x + 1)]
    return Numbering([odds, B] + cands)


def _run_inc_decode(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    x = read_param(params, "x", 8, minimum=0)
    ok = True
    for i, K in enumerate(fixtures.k_fixtures(hz)):
        nu = _decode_family(K, x, hz)
        oracle = relations.inc_oracle_bruteforce(nu)
        got = relations.decide_k_below(oracle, nu, x, K)
        expected = {y for y in K.final_members() if y < x}
        trace.line({"decoded": sorted(got), "expected": sorted(expected),
                    "fixture": i, "type": "decode"})
        ok = ok and got == expected
    return {"decoded-exact": ok}


def _run_gazebo(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    beta = fixtures.random_catalog(seed, read_param(params, "size", 5, minimum=1),
                                   hz, "gazebo-beta")
    alpha, state = relations.gazebo_run(beta)
    for row in state.trace:
        trace.line({"type": "gazebo", **{k: v for k, v in sorted(row.items())}})
    oracle = relations.gazebo_lex_emissions(state)
    bad = relations.check_persistence(oracle, alpha)
    if bad is not None:
        (i, j), s = bad
        print(f"persistence: emitted pair ({i}, {j}) compares greater at "
              f"stage {s}", file=sys.stderr)
    brute = relations.lex_oracle_bruteforce(alpha)
    mismatch = relations.first_mismatch(oracle, brute)
    if mismatch is not None:
        i, j = mismatch
        holder = "follower" if oracle.has(i, j) else "brute-force"
        print(f"matches-bruteforce: left side {i} first differs at right side "
              f"{j}, held only by the {holder} oracle", file=sys.stderr)
    return {
        "persistence": bad is None,
        "matches-bruteforce": mismatch is None,
        "validator": all(bool(r) for r in alpha.validate()),
    }


def _run_diagonal(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    nu = fixtures.diagonal_catalog(hz)
    Ws = [Schedule.from_pairs([]) for _ in range(nu.index_range)]
    B, state = diagonal.build_diagonal(nu, Ws)
    for row in islice(state.trace_rows(), 200):
        trace.line({"type": "diag", **row})
    final = B.final_prefix()
    differs = all(final.value != limit_estimate(nu.at(e))[0].value
                  for e in range(nu.index_range))
    return {"validator": bool(validate_left_re(B)), "differs-from-catalog": differs}


def _run_excise(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    alpha = fixtures.random_catalog(seed, 5, hz, "excise-base")
    R = Schedule.from_pairs([(1, 4), (3, 9)])
    X = fixtures.late_boundary_process(hz, read_param(params, "checkpoint", 20))
    beta = selfref.excise(alpha, R, X)
    for e in range(beta.index_range):
        trace.line({"final": beta.at(e).final_prefix().to_string(), "index": e,
                    "type": "excised"})
    return {"validator": all(bool(r) for r in beta.validate())}


RUNNERS: dict[str, Callable] = {
    "markers": _run_markers,
    "generic": _run_generic,
    "selfref": _run_selfref,
    "bambam": _run_bambam,
    "zulu-min": lambda hz, seed, p, t: _run_zulu(hz, seed, p, t, True),
    "zulu-max": lambda hz, seed, p, t: _run_zulu(hz, seed, p, t, False),
    "maxsep": _run_maxsep,
    "split": _run_split,
    "lowerfarm": _run_lowerfarm,
    "tilde-a": _run_tilde,
    "inc-decode": _run_inc_decode,
    "gazebo": _run_gazebo,
    "diagonal": _run_diagonal,
    "excise": _run_excise,
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
    try:
        return args.fn(args)
    except (UsageError, InputError, CapacityError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

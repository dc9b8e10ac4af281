"""Numbering transformations with self-referential index sets.

The central construction turns a numbering and a retraceable marker set into
a new numbering whose processes follow the original family while their index
survives, and switch to a lex-greater string followed by a boundary set once
the index is removed.  The boundary tail advances only while a driving
approximation shows the index as a member, so membership of an index in the
resulting class equals membership in the driving set.  The singleton
numberings, the enumeration witness, the cutoff gadget and excision live
here too, all on the same freezing machinery.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain, groupby
from typing import TYPE_CHECKING, Callable, Sequence

from . import fixtures
from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   Numbering, Prefix, Schedule, UsageError, finite_set_process,
                   first_difference, index_set_estimate, lex_cmp, LESS,
                   limit_estimate, moves_within, read_param)
from .markers import MarkerSystem, count_h

if TYPE_CHECKING:
    from .cli import TraceWriter


def sigma_above(p: Prefix) -> Prefix:
    """Cheapest string strictly lex-above: copy to the first 0, set it, stop."""
    if p.value == (1 << p.length) - 1:
        raise CapacityError("no string lex-above an all-ones prefix on this horizon")
    first_zero = first_difference(p, Prefix.ones(p.length))
    return Prefix(first_zero + 1, (p.value >> (p.length - 1 - first_zero)) | 1)


def has_one_at_or_beyond(k: int) -> Callable[[ApproxProcess], bool]:
    """Decidable class surrogate: the limit estimate has a member at or past k."""

    def decide(p: ApproxProcess) -> bool:
        final = p.final_prefix()
        tail = final.value & ((1 << max(final.length - k, 0)) - 1)
        return tail != 0

    return decide


def limit_equals(target: Prefix) -> Callable[[ApproxProcess], bool]:
    def decide(p: ApproxProcess) -> bool:
        final, _ = limit_estimate(p)
        return final.value == target.value and final.length == target.length

    return decide


class SelfRefPlan:
    def __init__(self, base: Numbering, A: ApproxProcess, I: MarkerSystem,
                 h: Callable[[int], int], X: ApproxProcess,
                 classC: Callable[[ApproxProcess], bool],
                 sigma: dict[int, Prefix], indices: int):
        self.base = base
        self.A = A
        self.I = I
        self.h = h
        self.X = X
        self.classC = classC
        self.sigma = sigma
        self.indices = indices


def build_selfref_plan(base: Numbering, A: ApproxProcess, I: MarkerSystem,
                       X: ApproxProcess,
                       classC: Callable[[ApproxProcess], bool]) -> SelfRefPlan:
    """Fix the index map from the marker count and choose the switch strings.

    The plan covers the base indices below the last stage, the ones whose
    marker snapshot lies inside the horizon, and below the bit horizon, the
    ones the driving approximation shows or leaves out.
    """
    hz = base.horizon
    if A.horizon != hz or X.horizon != hz or I.horizon != hz:
        raise UsageError("plan parts must share one horizon")
    indices = min(base.index_range, hz.stages - 1, hz.bits)
    # Clamp: positions removed before the first survivor count to -1, and any
    # base index serves for them since they leave the marker set anyway.
    h_table = [max(0, count_h(I, e)) for e in range(indices)]
    for e, he in enumerate(h_table):
        if he >= base.index_range:
            raise UsageError(f"marker count at {e} exceeds the base catalog")
    final = hz.stages - 1
    sigma: dict[int, Prefix] = {}
    for e in range(indices):
        r = I.removal_stage.get(e)
        if r is not None and r <= final:
            sigma[e] = sigma_above(base.at(h_table[e]).prefix(r))
    return SelfRefPlan(base, A, I, lambda e: h_table[e], X, classC, sigma, indices)


def _follow_then_switch(alpha: ApproxProcess, r: int, sig: Prefix,
                        tail: ApproxProcess, label: str) -> ApproxProcess:
    """Follow alpha before stage r; from r on, show sig followed by the bits
    of `tail` past sig's length."""
    N = alpha.horizon.bits
    L = sig.length
    head = sig.value << (N - L)

    def prefix_value(s: int) -> int:
        if s < r:
            return alpha.value(s)
        return head | tail.value(s) >> L

    moves = [c for c in alpha.changes if c < r] + [r]
    moves += (c for c in tail.changes if c > r)
    return ApproxProcess(prefix_value, alpha.horizon, label,
                         moves=moves_within(moves, alpha.horizon))


def _while_shown(P: ApproxProcess, A: ApproxProcess, e: int,
                 label: str) -> ApproxProcess:
    """P at each stage where A shows e; elsewhere P at the last such stage,
    or at stage 0 before the first.  Only the change stages of A and P can
    move it.  They are kept in lists: a set or dict of bambam's 2,048
    stages raised its peak RSS by 0.12 MB."""
    stages = groupby(sorted(chain((0,), A.changes, P.changes)))
    shown = [s for s, _ in stages if s == 0 or A.bit(s, e)]
    return ApproxProcess(lambda s: P.value(shown[bisect_right(shown, s) - 1]),
                         A.horizon, label, moves=shown[1:])


def make_into_itself(plan: SelfRefPlan) -> Numbering:
    """Follow the base family on surviving indices; on removed ones, switch to
    the chosen string followed by the boundary set, whose tail advances only
    while the driving approximation shows membership."""
    final = plan.base.horizon.stages - 1
    processes = []
    for e in range(plan.indices):
        alpha = plan.base.at(plan.h(e))
        r = plan.I.removal_stage.get(e)
        if r is None or r > final:
            processes.append(alpha)
            continue
        # The tail is frozen at the last stage that showed e in the driver.
        tail = _while_shown(plan.X, plan.A, e, f"tail-{e}")
        processes.append(_follow_then_switch(alpha, r, plan.sigma[e], tail,
                                             f"beta-{e}"))
    return Numbering(processes)


def singleton_numbering_finite(A: frozenset[int], base: Numbering) -> Numbering:
    """Hardwire a nonempty finite set: its members name it, the other small
    indices name the empty set, and the base catalog is shifted above."""
    if not A:
        raise InputError("the hardwired set must be nonempty")
    hz = base.horizon
    m = max(A)
    target = Prefix.from_set(A, hz.bits)
    for j in range(base.index_range):
        got, _ = limit_estimate(base.at(j))
        if got.value == target.value:
            raise InputError(f"base index {j} already names the hardwired set")
    set_proc = finite_set_process(A, hz, "hardwired")
    empty = finite_set_process((), hz, "empty")
    processes = [set_proc if e in A else empty for e in range(m + 1)]
    processes.extend(base.at(d) for d in range(base.index_range))
    return Numbering(processes)


def singleton_numbering_infinite(A: ApproxProcess, R: Sequence[int],
                                 base: Numbering) -> Numbering:
    """Name a strictly changing approximation by exactly its own members.

    Indices along the injected recursive sequence carry the base catalog; any
    other index e shows the approximation frozen at the last stage where e
    looked like a member, which is the final stage exactly when e is one.
    """
    hz = A.horizon
    if base.index_range and base.horizon != hz:
        raise UsageError("base catalog must share the horizon")
    S = hz.stages
    final_value = A.value(S - 1)
    # A is constant between changes: it differs from its limit at every
    # earlier stage iff it last changes at S - 1 and never showed it before.
    if (A.changes[-1] if A.changes else 0) != S - 1 or any(
            A.value(c - 1) == final_value for c in A.changes):
        raise InputError("the approximation must differ from its limit "
                         "estimate at every earlier stage")
    if len(set(R)) != len(R) or sorted(R) != list(R):
        raise UsageError("the recursive sequence must be strictly increasing")
    for b in R:
        if A.bit(S - 1, b) == 1:
            raise InputError(f"sequence element {b} lies in the named set")
    for j in range(base.index_range):
        if limit_estimate(base.at(j))[0].value == final_value:
            raise InputError(f"base index {j} already names the target set")
    indices = max((R[d] for d in range(min(len(R), base.index_range))),
                  default=-1) + 1
    place = {b: d for d, b in enumerate(R) if d < base.index_range}
    return Numbering([base.at(place[e]) if e in place
                      else _while_shown(A, A, e, f"gamma-{e}")
                      for e in range(indices)])


def singleton_witness(alpha: Numbering, A: ApproxProcess, r: Prefix) -> Schedule:
    """Enumerate the indices whose approximation ever lex-exceeds a threshold
    strictly between the named set and all-ones."""
    hz = alpha.horizon
    r_pad = r.padded(hz.bits)
    a_final, _ = limit_estimate(A)
    if not (lex_cmp(a_final, r_pad) == LESS
            and lex_cmp(r_pad, Prefix.ones(hz.bits)) == LESS):
        raise InputError("threshold must lie strictly between the set and all-ones")
    entries = []
    for e in range(alpha.index_range):
        for s in range(hz.stages):
            if alpha.at(e).value(s) > r_pad.value:
                entries.append((e, s))
                break
    return Schedule.from_pairs(entries)


def infinite_indexset_gadget(B: ApproxProcess, W: Schedule) -> ApproxProcess:
    """Restrict a process below the running maximum of an enumeration."""
    hz = B.horizon
    N = hz.bits

    def prefix_value(s: int) -> int:
        c = max(W.members_at(s), default=None)
        if c is None:
            return 0
        keep = min(c, N)
        mask = ((1 << keep) - 1) << (N - keep) if keep else 0
        return B.value(s) & mask

    moves = moves_within([*B.changes, *(t for _, t in W.entries)], hz)
    return ApproxProcess(prefix_value, hz, "cutoff", moves=moves)


def excise(alpha: Numbering, R: Schedule, X: ApproxProcess) -> Numbering:
    """Divert every enumerated index to a lex-greater string followed by the
    advancing boundary set; untouched indices keep their original process."""
    hz = alpha.horizon
    if X.horizon != hz:
        raise UsageError("boundary set must share the horizon")
    processes = []
    for e in range(alpha.index_range):
        r = R.entry_stage(e)
        if r is None or r >= hz.stages:
            processes.append(alpha.at(e))
            continue
        sig = sigma_above(alpha.at(e).prefix(r))
        processes.append(_follow_then_switch(alpha.at(e), r, sig, X,
                                             f"excised-{e}"))
    return Numbering(processes)


# CLI runners, dispatched from cli.RUNNERS.

def run_selfref(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    plan = fixtures.selfref_fixture(seed, hz)
    beta = make_into_itself(plan)
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


def run_bambam(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    A = fixtures.bambam_infinite_process(hz)
    a_members = A.final_prefix().members()
    R = [b for b in range(1, hz.bits, 2)][:6]
    base = fixtures.random_catalog(seed, 6, hz, "bambam-base")
    gamma = singleton_numbering_infinite(A, R, base)
    target, _ = limit_estimate(A)
    est = index_set_estimate(gamma, limit_equals(target))
    expected = frozenset(e for e in range(gamma.index_range) if e in a_members)
    trace.line({"expected": sorted(expected), "index-set": sorted(est),
                "type": "sets"})
    return {"index-set-exact": est == expected,
            "validator": all(bool(r) for r in gamma.validate())}


def run_excise(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    alpha = fixtures.random_catalog(seed, 5, hz, "excise-base")
    R = Schedule.from_pairs([(1, 4), (3, 9)])
    X = fixtures.late_boundary_process(hz, read_param(params, "checkpoint", 20))
    beta = excise(alpha, R, X)
    for e in range(beta.index_range):
        trace.line({"final": beta.at(e).final_prefix().to_string(), "index": e,
                    "type": "excised"})
    return {"validator": all(bool(r) for r in beta.validate())}

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

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (ApproxProcess, CapacityError, InputError, Numbering,
                   Prefix, Schedule, UsageError, finite_set_process,
                   first_difference, lex_cmp, GREATER, LESS, limit_estimate)
from .markers import MarkerSystem, count_h


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


@dataclass
class SelfRefPlan:
    base: Numbering
    A: ApproxProcess
    I: MarkerSystem
    h: Callable[[int], int]
    X: ApproxProcess
    classC: Callable[[ApproxProcess], bool]
    sigma: dict[int, Prefix]
    indices: int


def build_selfref_plan(base: Numbering, A: ApproxProcess, I: MarkerSystem,
                       X: ApproxProcess,
                       classC: Callable[[ApproxProcess], bool]) -> SelfRefPlan:
    """Fix the index map from the marker count and choose the switch strings.

    The plan covers the base indices below the last stage, the ones whose
    marker snapshot lies inside the horizon.
    """
    hz = base.horizon
    if A.horizon != hz or X.horizon != hz or I.horizon != hz:
        raise UsageError("plan parts must share one horizon")
    indices = min(base.index_range, hz.stages - 1)
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
                        X: ApproxProcess, tail_stage: Sequence[int],
                        label: str) -> ApproxProcess:
    """Follow alpha before stage r; from r on, show sig followed by the bits
    of X past sig's length at stage tail_stage[s]."""
    N = alpha.horizon.bits
    L = sig.length
    head = sig.value << (N - L)

    def prefix_value(s: int) -> int:
        if s < r:
            return alpha.prefix(s).value
        return head | X.prefix(tail_stage[s]).value >> L

    return ApproxProcess(prefix_value, alpha.horizon, label)


def _last_shown(A: ApproxProcess, e: int) -> list[int]:
    """For each stage s, the last stage <= s at which A shows e, or 0."""
    stages = []
    u = 0
    for s in range(A.horizon.stages):
        if A.bit(s, e) == 1:
            u = s
        stages.append(u)
    return stages


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
        processes.append(_follow_then_switch(alpha, r, plan.sigma[e], plan.X,
                                             _last_shown(plan.A, e),
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
    final_value = A.prefix(S - 1).value
    for n in range(S - 1):
        if A.prefix(n).value == final_value:
            raise InputError(
                "the approximation must differ from its limit estimate at every "
                "earlier stage")
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
    processes = []
    for e in range(indices):
        if e in place:
            processes.append(base.at(place[e]))
            continue
        values = [A.prefix(u).value for u in _last_shown(A, e)]
        processes.append(ApproxProcess(lambda s: values[s], hz, f"gamma-{e}"))
    return Numbering(processes)


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
            if lex_cmp(alpha.at(e).prefix(s), r_pad) == GREATER:
                entries.append((e, s))
                break
    return Schedule.from_pairs(entries)


def infinite_indexset_gadget(B: ApproxProcess, W: Schedule) -> ApproxProcess:
    """Restrict a process below the running maximum of an enumeration."""
    hz = B.horizon
    N = hz.bits
    cutoffs = [W.max_member_at(s) for s in range(hz.stages)]

    def prefix_value(s: int) -> int:
        c = cutoffs[s]
        if c is None:
            return 0
        keep = min(c, N)
        mask = ((1 << keep) - 1) << (N - keep) if keep else 0
        return B.prefix(s).value & mask

    return ApproxProcess(prefix_value, hz, "cutoff")


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
                                             range(hz.stages), f"excised-{e}"))
    return Numbering(processes)

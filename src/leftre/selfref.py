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
from typing import Callable, Optional, Sequence

from .core import (ApproxProcess, CapacityError, Horizon, HorizonPredicate,
                   InputError, Numbering, Prefix, Schedule, UsageError,
                   constant_process, finite_set_process, lex_cmp, GREATER,
                   LESS, limit_estimate, process_from_stage_prefixes)
from .markers import MarkerSystem, count_h


def sigma_above(p: Prefix) -> Prefix:
    """Cheapest string strictly lex-above: copy to the first 0, set it, stop."""
    if p.value == (1 << p.length) - 1:
        raise CapacityError("no string lex-above an all-ones prefix on this horizon")
    first_zero = next(n for n in range(p.length) if p.bit(n) == 0)
    return Prefix(first_zero + 1, (p.value >> (p.length - 1 - first_zero)) | 1)


def tail_pointer(A: ApproxProcess, e: int, s: int) -> int:
    """Largest stage up to s at which the approximation shows e as a member,
    or 0 if there is none."""
    return max((t for t in range(s + 1) if A.bit(t, e) == 1), default=0)


def has_one_at_or_beyond(k: int) -> HorizonPredicate:
    """Decidable class surrogate: the limit estimate has a member at or past k."""

    def decide(p: ApproxProcess) -> bool:
        final = p.final_prefix()
        tail = final.value & ((1 << max(final.length - k, 0)) - 1)
        return tail != 0

    return HorizonPredicate(decide, f"one-beyond-{k}")


def limit_equals(target: Prefix) -> HorizonPredicate:
    def decide(p: ApproxProcess) -> bool:
        final, _ = limit_estimate(p)
        return final.value == target.value and final.length == target.length

    return HorizonPredicate(decide, "limit-equals-target")


@dataclass
class SelfRefPlan:
    base: Numbering
    A: ApproxProcess
    I: MarkerSystem
    h: Callable[[int], int]
    X: ApproxProcess
    classC: HorizonPredicate
    sigma: dict[int, Prefix]
    indices: int


def build_selfref_plan(base: Numbering, A: ApproxProcess, I: MarkerSystem,
                       X: ApproxProcess, classC: HorizonPredicate,
                       indices: Optional[int] = None) -> SelfRefPlan:
    """Fix the index map from the marker count and choose the switch strings."""
    hz = base.horizon
    if A.horizon != hz or X.horizon != hz or I.horizon != hz:
        raise UsageError("plan parts must share one horizon")
    if indices is None:
        indices = min(base.index_range, hz.stages - 1)
    if indices > hz.stages - 1:
        raise UsageError("index range exceeds the marker snapshot horizon")
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


def make_into_itself(plan: SelfRefPlan) -> Numbering:
    """Follow the base family on surviving indices; on removed ones, switch to
    the chosen string followed by the boundary set, whose tail advances only
    while the driving approximation shows membership."""
    hz = plan.base.horizon
    N = hz.bits
    final = hz.stages - 1
    processes = []
    for e in range(plan.indices):
        alpha = plan.base.at(plan.h(e))
        r = plan.I.removal_stage.get(e)
        if r is None or r > final:
            processes.append(alpha)
            continue
        sig = plan.sigma[e]
        L = sig.length
        prefixes = []
        u = 0
        for s in range(hz.stages):
            if plan.A.bit(s, e) == 1:
                u = s
            if s < r:
                prefixes.append(alpha.prefix(s))
            else:
                tail = plan.X.prefix(u).value >> L if L < N else 0
                prefixes.append(Prefix(N, (sig.value << (N - L)) | tail))
        processes.append(process_from_stage_prefixes(prefixes, hz, f"beta-{e}"))
    return Numbering(processes, label="made-into-itself")


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
    empty = constant_process(Prefix.zeros(hz.bits), hz, "empty")
    processes = [set_proc if e in A else empty for e in range(m + 1)]
    processes.extend(base.at(d) for d in range(base.index_range))
    return Numbering(processes, label="singleton-finite")


def singleton_numbering_infinite(A: ApproxProcess, R: Sequence[int],
                                 base: Numbering,
                                 indices: Optional[int] = None) -> Numbering:
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
    if indices is None:
        indices = max((R[d] for d in range(min(len(R), base.index_range))),
                      default=-1) + 1
    place = {b: d for d, b in enumerate(R) if d < base.index_range}
    processes = []
    for e in range(indices):
        if e in place:
            processes.append(base.at(place[e]))
            continue
        prefixes = []
        u = 0
        for s in range(S):
            if A.bit(s, e) == 1:
                u = s
            prefixes.append(A.prefix(u))
        processes.append(process_from_stage_prefixes(prefixes, hz, f"gamma-{e}"))
    return Numbering(processes, label="singleton-infinite")


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
    return Schedule.from_pairs(entries, "re-set")


def infinite_indexset_gadget(B: ApproxProcess, W: Schedule,
                             label: str = "cutoff") -> ApproxProcess:
    """Restrict a process below the running maximum of an enumeration."""
    if W.kind != "re-set":
        raise UsageError("cutoff gadget needs an enumeration schedule")
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

    return ApproxProcess(prefix_value, hz, label)


def excise(alpha: Numbering, R: Schedule, X: ApproxProcess) -> Numbering:
    """Divert every enumerated index to a lex-greater string followed by the
    advancing boundary set; untouched indices keep their original process."""
    if R.kind != "re-set":
        raise UsageError("excision needs an enumeration schedule")
    hz = alpha.horizon
    if X.horizon != hz:
        raise UsageError("boundary set must share the horizon")
    N = hz.bits
    processes = []
    for e in range(alpha.index_range):
        r = R.entry_stage(e)
        if r is None or r >= hz.stages:
            processes.append(alpha.at(e))
            continue
        sig = sigma_above(alpha.at(e).prefix(r))
        L = sig.length
        prefixes = []
        for s in range(hz.stages):
            if s < r:
                prefixes.append(alpha.at(e).prefix(s))
            else:
                tail = X.prefix(s).value >> L if L < N else 0
                prefixes.append(Prefix(N, (sig.value << (N - L)) | tail))
        processes.append(process_from_stage_prefixes(prefixes, hz, f"excised-{e}"))
    return Numbering(processes, label="excised")

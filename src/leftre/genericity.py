"""Desk-scale genericity: forcing, interval functions, indifference checks.

Requirements are finite sets of binary strings.  A string satisfies
requirement e if one of its prefixes lies in the set or if no string of the
set properly extends it; extension search is bounded by the bit horizon,
which is the computable surrogate for the unbounded side of the definition.
A generic prefix is forced deterministically (least witnessing extension
first), an interval function is read off from the least satisfying segment
lengths, and indifference of a marker set is verified by exhaustively
re-checking every variant that differs from the forced prefix only on marker
positions.
"""
from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Optional, Sequence

from . import fixtures
from .core import (CapacityError, Horizon, InputError, Prefix, Record,
                   UsageError, read_param)
from .markers import MarkerSystem, build_retraceable

if TYPE_CHECKING:
    from .cli import TraceWriter


class RequirementList(Record):
    def __init__(self, reqs: tuple[frozenset[str], ...]):
        if any(set(w) - {"0", "1"} for strings in reqs for w in strings):
            raise UsageError("requirement strings must be binary")
        self.reqs = reqs  # one set of binary strings per requirement

    @property
    def count(self) -> int:
        return len(self.reqs)

    def strings_at(self, e: int) -> frozenset[str]:
        return self.reqs[e]

    def validate_within(self, bits: int) -> None:
        for e in range(self.count):
            for w in self.strings_at(e):
                if len(w) > bits:
                    raise InputError(
                        f"requirement {e} contains a string longer than the horizon")

    @classmethod
    def from_strings(cls, groups: Sequence[Sequence[str]]) -> "RequirementList":
        return cls(tuple(frozenset(strings) for strings in groups))


def _sat(rho: str, strings: frozenset[str], bits: int) -> bool:
    if any(rho[:k] in strings for k in range(len(rho) + 1)):
        return True
    return not any(len(w) > len(rho) and len(w) <= bits and w.startswith(rho)
                   for w in strings)


def prefix_meets_requirement(X: Prefix, strings: frozenset[str], bits: int) -> bool:
    """True iff some proper-length initial segment of X settles the requirement."""
    x = X.to_string()
    return any(_sat(x[:k], strings, bits) for k in range(min(len(x), bits)))


def force_generic_prefix(Ws: RequirementList, bits: int) -> Prefix:
    """Force a prefix meeting every requirement, least witnessing extension first."""
    Ws.validate_within(bits)
    rho = ""
    for e in range(Ws.count):
        strings = Ws.strings_at(e)
        if any(rho[:k] in strings for k in range(len(rho) + 1)):
            continue
        extensions = sorted(
            (w for w in strings if len(w) >= len(rho) and w.startswith(rho)
             and len(w) <= bits),
            key=lambda w: (len(w), w))
        if extensions:
            rho = extensions[0]
        # Otherwise no enumerated string extends rho: vacuously settled.
    forced = Prefix.from_string(rho).padded(bits)
    for e in range(Ws.count):
        if not prefix_meets_requirement(forced, Ws.strings_at(e), bits):
            raise CapacityError(
                f"horizon of {bits} bits exhausted while forcing requirement {e}")
    return forced


def least_satisfying_end(sigma: str, A: Prefix, strings: frozenset[str],
                         bits: int) -> int:
    """Least c >= |sigma| such that sigma followed by A's bits through c
    settles the requirement; capacity error if no c exists on the horizon."""
    a = A.to_string()
    for c in range(len(sigma), len(a)):
        tau = sigma + a[len(sigma):c + 1]
        if _sat(tau, strings, bits):
            return c
    raise CapacityError("no satisfying segment end within the bit horizon")


def interval_function_values(A: Prefix, Ws: RequirementList, levels: int) -> list[int]:
    """f(0)=0; each next value covers the worst segment end over all prefixed
    strings and requirement indices bounded by the previous value.  Strictly
    increasing by construction (empty bound sets advance by one).  A string
    as long as e's longest settles e at its own end, so none is tried."""
    bits = A.length
    f = [0]
    cache: dict[tuple[str, int], int] = {}
    for _ in range(levels):
        bound = f[-1]
        worst = 0
        for e in range(min(bound + 1, Ws.count)):
            strings = Ws.strings_at(e)
            longest = max(map(len, strings), default=0)
            for length in range(min(bound + 1, longest)):
                for sig_bits in product("01", repeat=length):
                    sigma = "".join(sig_bits)
                    key = (sigma, e)
                    if key not in cache:
                        cache[key] = least_satisfying_end(sigma, A, strings, bits)
                    worst = max(worst, cache[key])
        nxt = max(bound + 1, worst)
        if nxt >= bits:
            raise CapacityError(
                f"interval function exceeds the bit horizon at level {len(f)}")
        f.append(nxt)
    return f


def intervals_from_values(f: Sequence[int]) -> list[range]:
    """J_k runs from f(k)+1 through f(k+1), inclusive."""
    return [range(f[k] + 1, f[k + 1] + 1) for k in range(len(f) - 1)]


class GenericPlan:
    def __init__(self, A: Prefix, f_values: list[int], J: list[range],
                 markers: MarkerSystem, Ws: RequirementList):
        self.A = A
        self.f_values = f_values
        self.J = J
        self.markers = markers
        self.Ws = Ws

    def marker_free_intervals(self, k_bound: int) -> list[int]:
        s = self.markers.final_stage()
        out = []
        for k, J in enumerate(self.J):
            if k >= k_bound:
                break
            if all(self.markers.removed(p, s) for p in J):
                out.append(k)
        return out


def build_generic_plan(Ws: RequirementList, bits: int, levels: int,
                       horizon: Horizon) -> GenericPlan:
    """Full pipeline: force a prefix, read off the interval function, and build
    markers dominating every second interval bound."""
    if levels % 2 != 0:
        raise UsageError("levels must be even to double the interval bounds")
    A = force_generic_prefix(Ws, bits)
    f = interval_function_values(A, Ws, levels)
    # The +1 keeps domination strict even at f(0) = 0: a value of 0 never
    # changes in the stage approximation, so its marker would sit at 0 exactly.
    doubled = [f[2 * n] + 1 for n in range(levels // 2 + 1)]
    if max(doubled) + 2 >= horizon.stages:
        raise CapacityError("stage horizon too small for the marker construction")
    markers = build_retraceable(doubled, horizon)
    return GenericPlan(A, f, intervals_from_values(f), markers, Ws)


class IndifferenceReport(Record):
    def __init__(self, ok: bool, positions: tuple[int, ...],
                 variants_checked: int, failures: tuple[tuple[str, int], ...]):
        self.ok = ok
        self.positions = positions
        self.variants_checked = variants_checked
        self.failures = failures  # (variant as bit string, failing index)


def verify_indifference(A: Prefix, I: MarkerSystem, Ws: RequirementList,
                        e_bound: int, cap: int = 12,
                        positions: Optional[Sequence[int]] = None) -> IndifferenceReport:
    """Exhaustively check every variant of A supported on the marker set.

    Variants assign arbitrary bits to the surviving marker positions below the
    prefix length; each must still settle requirements 0..e_bound.
    """
    if positions is None:
        s = I.final_stage()
        positions = [p for p in range(A.length) if not I.removed(p, s)]
    positions = tuple(positions)
    if len(positions) > cap:
        raise CapacityError(
            f"{len(positions)} free positions exceed the exhaustive cap of {cap}; "
            "sample instead")
    e_top = min(e_bound, Ws.count - 1)
    string_sets = [Ws.strings_at(e) for e in range(e_top + 1)]
    failures: list[tuple[str, int]] = []
    checked = 0
    for assignment in product((0, 1), repeat=len(positions)):
        value = A.value
        for p, b in zip(positions, assignment):
            mask = 1 << (A.length - 1 - p)
            value = (value | mask) if b else (value & ~mask)
        X = Prefix(A.length, value)
        checked += 1
        for e in range(e_top + 1):
            if not prefix_meets_requirement(X, string_sets[e], A.length):
                failures.append((X.to_string(), e))
                break
    return IndifferenceReport(not failures, positions, checked, tuple(failures))


# The CLI runner, dispatched from cli.RUNNERS.
def run_generic(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    Ws = fixtures.requirement_fixture()
    bits = read_param(params, "bits", 14, minimum=1)
    levels = read_param(params, "levels", 6, minimum=2)
    plan = build_generic_plan(Ws, bits, levels, hz)
    trace.line({"forced": plan.A.to_string(), "f": plan.f_values, "type": "plan"})
    free = plan.marker_free_intervals(levels)
    report = verify_indifference(plan.A, plan.markers, Ws, Ws.count - 1)
    trace.line({"free-intervals": free, "type": "intervals",
                "variants": report.variants_checked})
    satisfied = all(
        prefix_meets_requirement(plan.A, Ws.strings_at(e), bits)
        for e in range(Ws.count))
    return {"forced-satisfies": satisfied, "indifference": report.ok}

"""Inclusion and lex-order relations over numberings.

Brute-force oracles compute the relations from final limit estimates and
serve as independent references.  The coding half turns an enumeration of a
set K into a process whose adjacent bit pairs flip from 01 to 10, and the
decoding half recovers K below a bound by searching an enumerated inclusion
oracle.  The follower construction builds a numbering on which the lex
relation is enumerable: whenever one approximation overtakes another, the
overtaken follower is obliterated to the all-ones set, emitted pairs whose
left side died drag their right side down with them, and fresh followers are
established, so no emitted comparison is ever invalidated.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .core import (ApproxProcess, CapacityError, GREATER, Horizon, InputError,
                   InternalInvariantError, Numbering, Prefix, Schedule,
                   UsageError, lex_cmp, limit_estimate)


def pair_code(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


@dataclass(frozen=True)
class RelationOracle:
    entries: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), stage)
    mode: str  # "inclusion" | "lex"

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p, _ in self.entries)

    @cached_property
    def _pair_set(self) -> frozenset[tuple[int, int]]:
        # Built once for has().  pairs() stays a fresh set, so a caller that
        # reads it once does not keep it alive with the oracle.
        return self.pairs()

    def has(self, i: int, j: int) -> bool:
        return (i, j) in self._pair_set

    def max_stage(self) -> int:
        return max((t for _, t in self.entries), default=0)

    def csv_rows(self) -> list[str]:
        return [f"{i},{j},{t}" for (i, j), t in sorted(
            self.entries, key=lambda e: (e[1], pair_code(*e[0])))]


def _stable_finals(nu: Numbering) -> list[Prefix]:
    finals = []
    for e in range(nu.index_range):
        final, stable = limit_estimate(nu.at(e))
        if not stable:
            raise InputError(
                f"index {e} still changing near the horizon; oracle refused")
        finals.append(final)
    return finals


def inc_oracle_bruteforce(nu: Numbering) -> RelationOracle:
    """Inclusion on limit estimates; emission stage is the pair code, which
    simulates an enumeration order for the decoding search."""
    finals = _stable_finals(nu)
    entries = []
    for i, a in enumerate(finals):
        for j, b in enumerate(finals):
            if a.is_subset_of(b):
                entries.append(((i, j), pair_code(i, j)))
    return RelationOracle(tuple(entries), "inclusion")


def lex_oracle_bruteforce(nu: Numbering) -> RelationOracle:
    finals = _stable_finals(nu)
    entries = []
    for i, a in enumerate(finals):
        for j, b in enumerate(finals):
            if lex_cmp(a, b) != GREATER:
                entries.append(((i, j), pair_code(i, j)))
    return RelationOracle(tuple(entries), "lex")


def b_from_k(K: Schedule, horizon: Horizon) -> ApproxProcess:
    """Adjacent-pair coding: positions 2x, 2x+1 read 01 until x enters K and
    10 afterwards."""
    if K.kind != "k-set":
        raise UsageError("coding expects a k-set schedule")
    odds = Prefix.from_set(range(1, horizon.bits, 2), horizon.bits).value
    # Entering x flips the pair 2x, 2x+1 from 01 to 10.
    flips = Schedule.from_pairs([(2 * x + r, t) for x, t in K.entries
                                 for r in (0, 1)]).as_process(horizon)
    return ApproxProcess(lambda s: odds ^ flips.prefix(s).value, horizon,
                         "coded-k")


def decide_k_below(oracle: RelationOracle, nu: Numbering, x: int, K: Schedule,
                   a_index: int = 0, b_index: int = 1) -> set[int]:
    """Recover K below x from an enumerated inclusion oracle.

    Searches for a candidate set E and a stage at which both E-inside-odds
    and E-inside-coded-set pairs are out, and every y below x sits in exactly
    one of the stage view of K and the doubled-shifted view of E.  The result
    is audited against the schedule's final content.
    """
    if oracle.mode != "inclusion":
        raise UsageError("decoding needs an inclusion oracle")
    if x == 0:
        return set()
    S = nu.horizon.stages
    limit = max(oracle.max_stage(), max((t for _, t in K.entries), default=0),
                S - 1) + 1
    candidates = [e for e in range(nu.index_range) if e not in (a_index, b_index)]
    # The stage-s views grow by the entries of stage s, taken in stage order.
    emissions = sorted(oracle.entries, key=lambda e: e[1])
    k_entries = sorted(K.entries, key=lambda e: e[1])
    emitted: set[tuple[int, int]] = set()
    k_view: set[int] = set()
    i = k = 0
    for s in range(limit):
        while i < len(emissions) and emissions[i][1] <= s:
            emitted.add(emissions[i][0])
            i += 1
        while k < len(k_entries) and k_entries[k][1] <= s:
            k_view.add(k_entries[k][0])
            k += 1
        for e in candidates:
            if (e, a_index) not in emitted or (e, b_index) not in emitted:
                continue
            E = nu.at(e).prefix(min(s, S - 1)).members()
            if all((y in k_view) != (2 * y + 1 in E) for y in range(x)):
                result = {y for y in range(x) if 2 * y + 1 not in E}
                expected = {y for y in K.final_members() if y < x}
                if result != expected:
                    raise InternalInvariantError(
                        f"decoded {sorted(result)} but the schedule holds "
                        f"{sorted(expected)} below {x}")
                return result
    raise CapacityError("candidate family insufficient for decoding below "
                        f"{x} on this horizon")


@dataclass
class GazeboState:
    followers: dict[int, int] = field(default_factory=dict)  # beta idx -> alpha idx
    established: dict[int, tuple[int, int]] = field(default_factory=dict)
    obliterated: dict[int, int] = field(default_factory=dict)  # alpha idx -> stage
    next_fresh: int = 0
    emissions: list[tuple[tuple[int, int], int]] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)


def gazebo_run(beta: Numbering) -> tuple[Numbering, GazeboState]:
    """Follower construction making the lex relation enumerable.

    Obliteration is triggered by any overtaking, in either index order; the
    emitted-pair cascade then takes down right-hand followers whose left
    partner died, and every affected index gets a fresh follower.

    The run is incremental: beta's stage values are read once as packed ints,
    emitted pairs are indexed by their left side, and each stage only tests
    the pairs that can change there.  At every stage end an emitted pair with
    a dead left side has a dead right side too, so the cascade starts from
    this stage's kills alone.
    """
    hz = beta.horizon
    n = beta.index_range
    ones = (1 << hz.bits) - 1
    finals = _stable_finals(beta)
    for i, f in enumerate(finals):
        if f.value == ones:
            raise InputError(f"catalog index {i} is the all-ones set")
        for j in range(i):
            if finals[j].value == f.value:
                raise InputError(f"catalog indices {j} and {i} coincide")
    bv = [[beta.at(i).prefix(s).value for s in range(hz.stages)]
          for i in range(n)]

    state = GazeboState()
    for j in range(n):
        state.followers[j] = j
        state.established[j] = (j, 0)
    state.next_fresh = n
    right_of = [0] * n  # bit b of right_of[a] is set once (a, b) is emitted
    dead = state.obliterated  # read for membership only

    def emit_stage(s: int, fresh: range, killed: set[int]) -> None:
        # Pairs with a dead left side never emit; a pair with a dead right
        # side emits once both sides are defined; live pairs follow beta.
        new = set()
        live = [(a, bv[b][s]) for b, a in state.followers.items()]
        for a, va in live:
            seen = right_of[a]
            new.update((a, b) for b, vb in live
                       if not seen >> b & 1 and (a == b or va <= vb))
        for b in killed:
            new.update((a, b) for a in range(state.next_fresh)
                       if not right_of[a] >> b & 1)
        for a in fresh:
            new.update((a, b) for b in dead)
        for p in sorted(new):
            right_of[p[0]] |= 1 << p[1]
            state.emissions.append((p, s))

    emit_stage(0, range(n), set())
    state.trace.append({"stage": 0, "followers": dict(state.followers),
                        "obliterated": []})
    for s in range(1, hz.stages):
        killed: set[int] = set()
        for i in range(n):
            pi, ci = bv[i][s - 1], bv[i][s]
            for j in range(n):
                if i != j and pi <= bv[j][s - 1] and ci > bv[j][s]:
                    # i overtook j: the follower of j and everything above go.
                    killed.update(a for a in range(state.followers[j],
                                                   state.next_fresh)
                                  if a not in dead)
        # Cascade: an emitted pair with a dead left side must not outlive its
        # right side, or the comparison flips when the left goes all-ones.
        work = list(killed)
        while work:
            rights = right_of[work.pop()]
            while rights:
                b = rights.bit_length() - 1
                rights ^= 1 << b
                if b not in dead and b not in killed:
                    killed.add(b)
                    work.append(b)
        fresh_from = state.next_fresh
        if killed:
            for a in killed:
                state.obliterated[a] = s
            for j in sorted(b for b, a in state.followers.items() if a in killed):
                state.followers[j] = state.next_fresh
                state.established[state.next_fresh] = (j, s)
                state.next_fresh += 1
                right_of.append(0)
        emit_stage(s, range(fresh_from, state.next_fresh), killed)
        state.trace.append({"stage": s, "followers": dict(state.followers),
                            "obliterated": sorted(killed)})

    # A follower reads 0 before it is established, follows its beta index
    # until obliterated, and is all-ones from then on.
    S = hz.stages
    processes = []
    for a in range(state.next_fresh):
        i, t = state.established[a]
        o = max(t, state.obliterated.get(a, S))
        values = [0] * t + bv[i][t:o] + [ones] * (S - o)
        processes.append(ApproxProcess(values.__getitem__, hz, f"alpha-{a}"))
    return Numbering(processes, label="followers"), state


def gazebo_lex_emissions(state: GazeboState) -> RelationOracle:
    """Package the run's emissions; every pair is lex-valid from its stage on."""
    return RelationOracle(tuple(state.emissions), "lex")


def check_persistence(oracle: RelationOracle, alpha: Numbering) -> Optional[tuple]:
    """First ((i, j), stage) whose comparison fails after emission, or None.

    Entries are scanned in oracle order and stages from the emission stage
    up.  Each index's stage values are read once, and only from the earliest
    stage an entry asks of it.  Suffix maxima and minima of those values skip
    every entry whose left side never exceeds its right side's least value,
    such as pairs whose right side is already all-ones.
    """
    S = alpha.horizon.stages
    rows: dict[int, tuple[list[int], list[int], list[int]]] = {}
    lowest: dict[int, int] = {}

    def read(e: int, t: int) -> tuple[list[int], list[int], list[int]]:
        """Extend index e's values and their suffix max and min down to t."""
        r = rows.get(e)
        if r is None:
            r = rows[e] = ([0] * S, [0] * S, [0] * S)
        v, top, bottom = r
        lo = lowest.get(e, S)
        p = alpha.at(e)
        v[t:lo] = [p.prefix(s).value for s in range(t, lo)]
        for s in range(lo - 1, t - 1, -1):
            if s == S - 1:
                top[s] = bottom[s] = v[s]
            else:
                top[s] = max(v[s], top[s + 1])
                bottom[s] = min(v[s], bottom[s + 1])
        lowest[e] = t
        return r

    for (i, j), t in oracle.entries:
        if t >= S:
            continue  # no stage left to compare
        vi, top_i, _ = rows[i] if lowest.get(i, S) <= t else read(i, t)
        vj, _, bottom_j = rows[j] if lowest.get(j, S) <= t else read(j, t)
        if top_i[t] > bottom_j[t] and any(map(operator.gt, vi[t:], vj[t:])):
            return ((i, j), next(s for s in range(t, S) if vi[s] > vj[s]))
    return None

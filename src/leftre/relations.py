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

import sys
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Optional

from . import fixtures
from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   InternalInvariantError, Numbering, Prefix, Record,
                   Schedule, UsageError, change_stages, derived_process,
                   finite_set_process, limit_estimate, moves_within, one_bits,
                   read_param)

if TYPE_CHECKING:
    from .cli import TraceWriter


def pair_code(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


class RelationOracle(Record):
    """A relation on indices and the stages at which its pairs are enumerated.

    `rows[i]` is the bitset of the right sides of left side i (bit j for
    index j).  `groups` holds one (stage, left side, right-side bitset)
    triple per stage and left side, sorted by stage and then left side.
    Without groups, the stage of pair (i, j) is its pair code, which
    simulates an enumeration order for a brute-force oracle without storing
    one group per pair.  The tuple views `entries`, `pairs()` and
    `csv_rows()` are derived from these.
    """

    def __init__(self, rows: tuple[int, ...],
                 groups: Optional[tuple[tuple[int, int, int], ...]] = None):
        self.rows = rows
        self.groups = groups

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[tuple[int, int], int]]
                     ) -> "RelationOracle":
        """The oracle of ((i, j), stage) entries given in any order, with
        repeats."""
        grouped: dict[tuple[int, int], int] = {}
        for (i, j), t in entries:
            grouped[t, i] = grouped.get((t, i), 0) | 1 << j
        rows = [0] * (1 + max((i for _, i in grouped), default=-1))
        for (_, i), bits in grouped.items():
            rows[i] |= bits
        return cls(tuple(rows),
                   tuple((t, i, bits) for (t, i), bits in sorted(grouped.items())))

    def stage_groups(self) -> tuple[tuple[int, int, int], ...]:
        """(stage, left side, right sides) in stage order; one singleton
        group per pair when stages are pair codes."""
        if self.groups is not None:
            return self.groups
        return tuple(sorted((pair_code(i, j), i, 1 << j)
                            for i, bits in enumerate(self.rows)
                            for j in one_bits(bits)))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """((i, j), stage) of every enumerated pair, by stage, i and j."""
        return tuple(((i, j), t) for t, i, bits in self.stage_groups()
                     for j in one_bits(bits))

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, bits in enumerate(self.rows)
                         for j in one_bits(bits))

    def has(self, i: int, j: int) -> bool:
        return 0 <= i < len(self.rows) and self.rows[i] >> j & 1 == 1

    def csv_rows(self) -> list[str]:
        return [f"{i},{j},{t}" for (i, j), t in sorted(
            self.entries, key=lambda e: (e[1], pair_code(*e[0])))]


def first_mismatch(a: RelationOracle,
                   b: RelationOracle) -> Optional[tuple[int, int]]:
    """The least pair (i, j), by i and then j, that exactly one of two
    oracles holds, or None when they hold the same pairs."""
    for i, (x, y) in enumerate(zip_longest(a.rows, b.rows, fillvalue=0)):
        if x != y:
            diff = x ^ y
            return i, (diff & -diff).bit_length() - 1
    return None


def _stable_finals(nu: Numbering) -> list[Prefix]:
    finals = []
    for e in range(nu.index_range):
        final, stable = limit_estimate(nu.at(e))
        if not stable:
            raise InputError(
                f"index {e} still changing near the horizon; oracle refused")
        finals.append(final)
    return finals


def _at_least(valued: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map each value of the (index, value) pairs to the bitset of the
    indices whose value is at least it: suffixes of the indices sorted by
    value, one bitset per distinct value."""
    by_value: dict[int, int] = {}
    for i, v in valued:
        by_value[v] = by_value.get(v, 0) | 1 << i
    above = 0
    for v in sorted(by_value, reverse=True):
        above |= by_value[v]
        by_value[v] = above
    return by_value


def inc_oracle_bruteforce(nu: Numbering) -> RelationOracle:
    """Inclusion on limit estimates; emission stage is the pair code, which
    simulates an enumeration order for the decoding search."""
    finals = _stable_finals(nu)
    return RelationOracle(tuple(
        sum(1 << j for j, b in enumerate(finals) if a.is_subset_of(b))
        for a in finals))


def lex_oracle_bruteforce(nu: Numbering) -> RelationOracle:
    """Lex order on limit estimates, by sorting rather than comparing pairs:
    the right sides of i are the indices whose final is at least i's."""
    finals = [f.value for f in _stable_finals(nu)]
    at_least = _at_least(enumerate(finals))
    return RelationOracle(tuple(at_least[v] for v in finals))


def b_from_k(K: Schedule, horizon: Horizon) -> ApproxProcess:
    """Adjacent-pair coding: positions 2x, 2x+1 read 01 until x enters K and
    10 afterwards."""
    odds = Prefix.from_set(range(1, horizon.bits, 2), horizon.bits).value
    # Entering x flips the pair 2x, 2x+1 from 01 to 10.
    flips = Schedule.from_pairs([(2 * x + r, t) for x, t in K.entries
                                 for r in (0, 1)]).as_process(horizon)
    return derived_process(flips, lambda v: odds ^ v, "coded-k")


def _check_decode_bits(x: int, bits: int) -> None:
    if 2 * x > bits:  # y = x - 1 codes at 2x - 1, which no candidate shows
        raise CapacityError(f"decoding below {x} needs {2 * x} bits, got "
                            f"{bits}")


def decide_k_below(oracle: RelationOracle, nu: Numbering, x: int,
                   K: Schedule) -> set[int]:
    """Recover K below x from an enumerated inclusion oracle.

    Index 0 of the family is the odds set and index 1 the coded set; every
    other index is a candidate.  Searches for a candidate set E and a stage
    at which both E-inside-odds and E-inside-coded-set pairs are out, and
    every y below x sits in exactly one of the stage view of K and the
    doubled-shifted view of E: `E & odd == odd ^ k_odd`, for the positions
    2y + 1 of every y < x and of those in K's view.  The result is audited
    against the schedule's final content.  Only stage 0 and the stages where
    something the test reads changed are searched: a candidate's value, the
    stage from which both its pairs are out, or the view of K.  Raises
    CapacityError when 2x exceeds the bit horizon.
    """
    if x == 0:
        return set()
    S, N = nu.horizon.stages, nu.horizon.bits
    _check_decode_bits(x, N)
    # (e, j) -> its first stage, j < 2.
    if oracle.groups is None:  # a pair's stage is its pair code
        first = {(e, j): pair_code(e, j) for e, bits in enumerate(oracle.rows)
                 for j in one_bits(bits & 3)}
    else:
        first = {}
        for t, e, bits in oracle.groups:
            for j in one_bits(bits & 3):
                first.setdefault((e, j), t)
    # Candidate -> the stage from which both of its pairs are out.
    ready = {e: max(first[e, 0], first[e, 1]) for e in range(2, nu.index_range)
             if (e, 0) in first and (e, 1) in first}
    k_entries = sorted((t, y) for y, t in K.entries if y < x)
    stages = change_stages(nu.at(e) for e in ready).union(
        ready.values(), (t for t, _ in k_entries))
    odd = Prefix.from_set(range(1, 2 * x, 2), N).value
    k_odd = k = 0
    for s in sorted(stages):
        while k < len(k_entries) and k_entries[k][0] <= s:
            k_odd |= 1 << (N - 2 - 2 * k_entries[k][1])
            k += 1
        want = odd ^ k_odd
        for e, t in ready.items():
            if t > s:
                continue
            E = nu.at(e).value(min(s, S - 1))
            if E & odd == want:
                result = {y for y in range(x) if not E >> (N - 2 - 2 * y) & 1}
                expected = {y for y in K.final_members() if y < x}
                if result != expected:
                    raise InternalInvariantError(
                        f"decoded {sorted(result)} but the schedule holds "
                        f"{sorted(expected)} below {x}")
                return result
    raise CapacityError("candidate family insufficient for decoding below "
                        f"{x} on this horizon")


class GazeboState:
    def __init__(self, established: dict[int, tuple[int, int]]):
        # alpha idx -> (beta idx, stage), for alpha idx 0, 1, ... in order
        self.established = established
        self.obliterated: dict[int, int] = {}  # alpha idx -> stage
        # (stage, left side, bitset of the right sides emitted then), in
        # emission order: by stage, then left side.
        self.groups: list[tuple[int, int, int]] = []
        self.right_of: list[int] = []  # bit b of right_of[a]: (a, b) emitted
        self.trace: list[dict] = []

    @property
    def emissions(self) -> list[tuple[tuple[int, int], int]]:
        """Every emitted ((a, b), stage), by stage and then pair."""
        return [((a, b), s) for s, a, bits in self.groups
                for b in one_bits(bits)]


def gazebo_run(beta: Numbering) -> tuple[Numbering, GazeboState]:
    """Follower construction making the lex relation enumerable.

    Obliteration is triggered by any overtaking, in either index order; the
    emitted-pair cascade then takes down right-hand followers whose left
    partner died, and every affected index gets a fresh follower.

    The run is incremental: beta's stage values are read as packed ints at
    stage 0 and where one of them changes, emitted pairs are kept as one
    bitset of right sides per left side, and each stage only tests the pairs
    that can change there (none where no beta process changed).  At every
    stage end an emitted pair with a dead left side has a dead right side
    too, so the cascade starts from this stage's kills alone.
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
    changed = change_stages(beta)
    cur = [p.value(0) for p in beta]  # beta's values at the current stage

    state = GazeboState({j: (j, 0) for j in range(n)})
    followers = {j: j for j in range(n)}  # beta idx -> alpha idx
    right_of = state.right_of  # one slot per follower established so far
    right_of.extend([0] * n)

    def emit_stage(s: int, dead: int) -> None:
        # Every earlier death was emitted to each left side defined then, so
        # `dead` adds this stage's deaths, and all of them for a fresh left
        # side.  A live left side's right sides are the live followers whose
        # value is at least its own.
        live = [(a, cur[b]) for b, a in followers.items()]
        at_least = _at_least(live)
        rights = {a: at_least[v] for a, v in live}
        for a, emitted in enumerate(right_of):
            bits = (rights.get(a, 0) | dead) & ~emitted
            if bits:
                right_of[a] |= bits
                state.groups.append((s, a, bits))

    dead = 0  # bitset of the obliterated followers
    emit_stage(0, dead)
    state.trace.append({"stage": 0, "followers": dict(followers),
                        "obliterated": []})
    for s in range(1, hz.stages):
        killed = 0
        if s in changed:
            prev, cur = cur, [p.value(s) for p in beta]
            # i overtook j: the follower of j and every live index above it go.
            overtaken = [followers[j] for i in range(n) for j in range(n)
                         if i != j and prev[i] <= prev[j] and cur[i] > cur[j]]
            if overtaken:
                killed = ((1 << len(right_of)) - (1 << min(overtaken))) & ~dead
        # Cascade: an emitted pair with a dead left side must not outlive its
        # right side, or the comparison flips when the left goes all-ones.
        frontier = killed
        while frontier:
            reach = 0
            for a in one_bits(frontier):
                reach |= right_of[a]
            frontier = reach & ~(dead | killed)
            killed |= frontier
        obliterated = list(one_bits(killed))
        if killed:
            dead |= killed
            for a in obliterated:
                state.obliterated[a] = s
            for j in sorted(b for b, a in followers.items()
                            if killed >> a & 1):
                followers[j] = a = len(right_of)
                state.established[a] = (j, s)
                right_of.append(0)
        if s in changed:  # elsewhere no beta value moved and no one died
            emit_stage(s, dead)
        state.trace.append({"stage": s, "followers": dict(followers),
                            "obliterated": obliterated})

    # A follower reads 0 before it is established, follows its beta index
    # until obliterated, and is all-ones from then on; it moves only at those
    # two stages and where its beta index changes in between.
    S = hz.stages
    processes = []
    for a, (i, t) in state.established.items():
        p = beta.at(i)
        o = max(t, state.obliterated.get(a, S))
        followed = [c for c in p.changes if t < c < o]
        processes.append(ApproxProcess(
            lambda s, p=p, t=t, o=o: 0 if s < t else p.value(s) if s < o else ones,
            hz, f"alpha-{a}", moves=moves_within([t, *followed, o], hz)))
    return Numbering(processes), state


def gazebo_lex_emissions(state: GazeboState) -> RelationOracle:
    """Package the run's emissions; every pair is lex-valid from its stage on."""
    return RelationOracle(tuple(state.right_of), tuple(state.groups))


def check_persistence(oracle: RelationOracle, alpha: Numbering) -> Optional[tuple]:
    """First ((i, j), stage) whose comparison fails after emission, or None.

    Stages are walked in order, keeping for each left side the union of the
    right sides emitted so far.  At every stage that union must lie inside
    the indices whose value is at least the left side's, which is one suffix
    of the stage's values in sorted order.  Only the emission stages and
    `change_stages(alpha)` are checked: any other stage repeats the one before.
    Only when a check fails are the entries scanned, to return the first
    failing entry in oracle order and its first failing stage.
    """
    n = alpha.index_range
    if len(oracle.rows) > n or any(bits >> n for bits in oracle.rows):
        raise UsageError(f"oracle pairs reach past the {n} indices of the "
                         f"numbering")
    S = alpha.horizon.stages
    processes = list(alpha)
    groups = oracle.stage_groups()
    emitted: dict[int, int] = {}  # left side -> right sides emitted so far
    k = 0
    stages = change_stages(processes).union(t for t, _, _ in groups if t < S)
    for s in sorted(stages):
        while k < len(groups) and groups[k][0] <= s:
            _, i, bits = groups[k]
            emitted[i] = emitted.get(i, 0) | bits
            k += 1
        values = [p.value(s) for p in processes]
        at_least = _at_least(enumerate(values))
        if any(bits & ~at_least[values[i]] for i, bits in emitted.items()):
            rows = [[p.value(t) for t in range(S)] for p in processes]
            return next(((i, j), t) for (i, j), e in oracle.entries
                        for t in range(e, S) if rows[i][t] > rows[j][t])
    return None


# CLI runners, dispatched from cli.RUNNERS.

def _decode_family(K: Schedule, x: int, hz: Horizon) -> Numbering:
    _check_decode_bits(x, hz.bits)
    odds = finite_set_process(range(1, hz.bits, 2), hz, "odds")
    B = b_from_k(K, hz)
    final_k = K.final_members()
    cands = [finite_set_process((2 * y + 1 for y in range(x1)
                                 if y not in final_k), hz, f"cand-{x1}")
             for x1 in range(x + 1)]
    return Numbering([odds, B] + cands)


def run_inc_decode(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    x = read_param(params, "x", 8, minimum=0)
    ok = True
    for i, K in enumerate(fixtures.k_fixtures(hz)):
        nu = _decode_family(K, x, hz)
        oracle = inc_oracle_bruteforce(nu)
        got = decide_k_below(oracle, nu, x, K)
        expected = {y for y in K.final_members() if y < x}
        trace.line({"decoded": sorted(got), "expected": sorted(expected),
                    "fixture": i, "type": "decode"})
        ok = ok and got == expected
    return {"decoded-exact": ok}


def run_gazebo(hz: Horizon, seed: int, params: dict, trace: TraceWriter) -> dict:
    beta = fixtures.random_catalog(seed, read_param(params, "size", 5, minimum=1),
                                   hz, "gazebo-beta")
    alpha, state = gazebo_run(beta)
    for row in state.trace:
        trace.line({"type": "gazebo", **{k: v for k, v in sorted(row.items())}})
    oracle = gazebo_lex_emissions(state)
    bad = check_persistence(oracle, alpha)
    if bad is not None:
        (i, j), s = bad
        print(f"persistence: emitted pair ({i}, {j}) compares greater at "
              f"stage {s}", file=sys.stderr)
    brute = lex_oracle_bruteforce(alpha)
    mismatch = first_mismatch(oracle, brute)
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

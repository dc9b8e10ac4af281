"""Deterministic fixture builders shared by the test suite and the driver.

Everything here is a pure function of its seed and horizon, so runs replay
byte-for-byte.  Randomized processes are generated as nondecreasing packed
prefix values with a frozen tail, which makes them valid by construction and
stable enough for the brute-force oracles.
"""
from __future__ import annotations

from random import Random
from typing import Optional

from .core import (ApproxProcess, CapacityError, Horizon, LimitFunctionApprox,
                   Numbering, Prefix, Schedule, process_from_stage_prefixes)
from .genericity import RequirementList
from .markers import MarkerSystem, build_retraceable
from .selfref import SelfRefPlan, build_selfref_plan, has_one_at_or_beyond


FREEZE_TAIL = 10  # stages at the end of a random process with no moves
MAX_REJECTED_DRAWS = 1000  # repeated or all-ones finals before a catalog gives up


def random_leftre_process(seed: int, horizon: Horizon, label: str = "",
                          freeze_tail: int = FREEZE_TAIL, move_chance: float = 0.3,
                          head_zeros: int = 1) -> ApproxProcess:
    """Random valid process: occasional lex moves, then a frozen tail.

    A move sets a 0 bit at a random position past the protected head and
    clears everything after it, the canonical lex increase.  Raises
    CapacityError when a move stage exists but the head covers every
    position.
    """
    rng = Random(seed)
    N = horizon.bits
    if head_zeros >= N and horizon.stages > freeze_tail:
        raise CapacityError(
            f"no position past the {head_zeros}-bit protected head on a "
            f"{N}-bit horizon")
    value = 0
    prefixes = []
    for s in range(horizon.stages):
        if s < horizon.stages - freeze_tail and rng.random() < move_chance:
            p = rng.randrange(head_zeros, N)
            if not (value >> (N - 1 - p)) & 1:
                keep = value >> (N - p) << (N - p) if p else 0
                value = keep | (1 << (N - 1 - p))
        prefixes.append(Prefix(N, value))
    return process_from_stage_prefixes(prefixes, horizon, label or f"rand-{seed}")


def random_catalog(seed: int, size: int, horizon: Horizon,
                   label: str = "catalog") -> Numbering:
    """Random processes with pairwise distinct, non-all-ones limit estimates.

    Raises CapacityError when the horizon leaves no stage for a move, or when
    MAX_REJECTED_DRAWS draws repeat a final or are all-ones.
    """
    if horizon.stages <= FREEZE_TAIL:
        raise CapacityError(
            f"random catalog needs more than {FREEZE_TAIL} stages, got "
            f"{horizon.stages}: every process would stay empty")
    processes: list[ApproxProcess] = []
    finals: set[int] = set()
    sub = 0
    while len(processes) < size:
        if sub - len(processes) >= MAX_REJECTED_DRAWS:
            raise CapacityError(
                f"found only {len(processes)} of {size} distinct finals in "
                f"{sub} draws on {horizon.stages}x{horizon.bits}")
        p = random_leftre_process(seed * 1000 + sub, horizon,
                                  f"{label}-{len(processes)}")
        sub += 1
        v = p.final_prefix().value
        if v in finals or v == (1 << horizon.bits) - 1:
            continue
        finals.add(v)
        processes.append(p)
    return Numbering(processes, label=label)


def one_per_stage_schedule(seed: int, horizon: Horizon) -> Schedule:
    """Exactly one fresh element enumerated at each stage it runs."""
    rng = Random(seed)
    count = min(horizon.stages, horizon.bits // 2)
    elements = rng.sample(range(horizon.bits), count)
    return Schedule.from_pairs([(x, s) for s, x in enumerate(elements)], "re-set")


def omega_fixture(seed: int, horizon: Horizon, top_bit: int = 32,
                  entries: int = 12) -> Schedule:
    """Bit-entry history with bit 0 pinned to 0.

    Raises CapacityError below two stages, where no stage after 0 is left
    for a bit to enter at.
    """
    if horizon.stages < 2:
        raise CapacityError(
            f"a bit-entry history needs at least 2 stages, got {horizon.stages}")
    rng = Random(seed)
    bits = rng.sample(range(1, top_bit + 1), min(entries, top_bit))
    return Schedule.from_pairs(
        sorted((m, rng.randrange(1, horizon.stages)) for m in bits), "omega-bits")


def omega_worked_example() -> Schedule:
    """The history settling to 0100...: bit 1 enters at stage 1."""
    return Schedule.from_pairs([(1, 1)], "omega-bits")


def k_fixtures(horizon: Horizon) -> list[Schedule]:
    """Five small halting-surrogate schedules."""
    S = horizon.stages
    raw = [
        [],
        [(0, 3)],
        [(0, 3), (2, 5)],
        [(1, 1), (3, 2), (5, 4), (7, 8)],
        [(x, min(2 * x + 1, S - 1)) for x in range(0, 16, 3)],
    ]
    return [Schedule.from_pairs(pairs, "k-set") for pairs in raw]


def settle_plus5(stages: int, count: int = 20) -> LimitFunctionApprox:
    return LimitFunctionApprox.from_final_values(
        [n + 5 for n in range(count)], stages)


def requirement_fixture() -> RequirementList:
    """Four short-string requirement lists; every long prefix settles them
    vacuously, so indifference flips are harmless by design."""
    return RequirementList.from_strings([
        ["1", "01"],
        ["00", "10", "11"],
        ["010", "0110"],
        ["101", "011", "0010"],
    ])


def dense_requirement(length: int) -> RequirementList:
    """An adversarial list enumerating every string of one length; variants
    touched below that length can break it, useful for failure-path tests."""
    return RequirementList.from_strings([
        [format(v, f"0{length}b") for v in range(1 << length)]])


def marker_fixture(horizon: Horizon, count: int = 20) -> MarkerSystem:
    return build_retraceable(settle_plus5(horizon.stages, count), horizon)


def bambam_infinite_process(horizon: Horizon) -> ApproxProcess:
    """Enters position 2s at stage s, so the approximation moves at every
    stage and the limit holds exactly the tracked evens."""
    if 2 * (horizon.stages - 1) >= horizon.bits:
        raise CapacityError(
            f"{horizon.stages} stages need {2 * horizon.stages - 1} bits for "
            f"one even entry per stage, got {horizon.bits}")
    prefixes = []
    value = 0
    N = horizon.bits
    for s in range(horizon.stages):
        value |= 1 << (N - 1 - 2 * s)
        prefixes.append(Prefix(N, value))
    return process_from_stage_prefixes(prefixes, horizon, "evens-stream")


def late_boundary_process(horizon: Horizon, checkpoint: int) -> ApproxProcess:
    """All zeros until the final stage, then a single 1 at the checkpoint.

    Frozen tails taken at any earlier stage miss the checkpoint bit, which is
    exactly the asymmetry the self-reference construction needs.
    """
    N = horizon.bits
    prefixes = [Prefix.zeros(N)] * (horizon.stages - 1)
    prefixes.append(Prefix.from_set({checkpoint}, N))
    return process_from_stage_prefixes(prefixes, horizon, "late-boundary")


def selfref_fixture(seed: int, horizon: Horizon, checkpoint: int = 40,
                    indices: Optional[int] = None) -> SelfRefPlan:
    """A full self-reference plan: a zero-headed catalog (so every switch
    string is just "1"), markers from the settling fixture, a schedule-driven
    membership approximation, and a late boundary set.  Raises CapacityError
    when the checkpoint, moved one position on past the switch string, lies
    beyond the bit horizon: no switched process could then meet the class
    predicate."""
    size = indices or min(12, horizon.stages - 1)
    base = random_catalog(seed, size, horizon, "selfref-base")
    if checkpoint + 1 >= horizon.bits:
        raise CapacityError(
            f"checkpoint {checkpoint} after a 1-bit switch string needs "
            f"{checkpoint + 2} bits, got {horizon.bits}")
    markers = marker_fixture(horizon)
    rng = Random(seed + 7)
    entries = [(e, rng.randrange(1, horizon.stages)) for e in range(size)
               if rng.random() < 0.5]
    A = Schedule.from_pairs(entries, "re-set").as_process(horizon, "driving")
    X = late_boundary_process(horizon, checkpoint)
    return build_selfref_plan(base, A, markers, X,
                              has_one_at_or_beyond(checkpoint), indices=size)


def diagonal_catalog(horizon: Horizon, size: int = 4) -> Numbering:
    """Zero-rich static catalog: empty, evens, multiples of three, and the
    complement of the first eight positions."""
    N = horizon.bits
    shapes = [
        frozenset(),
        frozenset(range(0, N, 2)),
        frozenset(range(0, N, 3)),
        frozenset(range(8, N)),
    ]
    prefixes = [Prefix.from_set(m, N) for m in shapes[:size]]
    return Numbering([process_from_stage_prefixes([p] * horizon.stages, horizon,
                                                  f"diag-{i}")
                      for i, p in enumerate(prefixes)], label="diag-catalog")


def diagonal_schedules(state_points: list[int], horizon: Horizon,
                       fire_for: tuple[int, ...] = (0,)) -> list[Schedule]:
    """Schedules that contain 3x but not x for the chosen indices, firing the
    one-time trigger once their point has settled."""
    fire_stage = horizon.stages // 2
    out = []
    for e, x in enumerate(state_points):
        if e in fire_for:
            out.append(Schedule.from_pairs([(3 * x, fire_stage)], "re-set"))
        else:
            out.append(Schedule.from_pairs([], "re-set"))
    return out

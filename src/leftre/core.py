"""Core types for finite-horizon set approximation.

Everything in this package works over a fixed horizon of S stages and N bit
positions.  A set is identified with its characteristic bit sequence; a
stage-indexed approximation of a set is its S packed N-bit stage prefixes,
nondecreasing in lexicographic order, plus an optional arithmetic answer for
positions past the horizon where a construction needs one.  This
module provides the prefix/process/numbering/schedule types and the
validators every construction in the package is checked against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

LESS = -1
EQUAL = 0
GREATER = 1


class UsageError(ValueError):
    """Caller violated an operation's contract (wrong kind, mismatched sizes)."""


class InputError(ValueError):
    """A fixture or input file violates a validated precondition."""


class CapacityError(RuntimeError):
    """The configured horizon is too small for the requested construction."""


@dataclass(frozen=True)
class Horizon:
    stages: int
    bits: int

    def __post_init__(self) -> None:
        if self.stages <= 0 or self.bits <= 0:
            raise UsageError("horizon must be positive in both dimensions")


@dataclass(frozen=True)
class Prefix:
    """A finite initial segment of a characteristic bit sequence.

    Bits are packed into an integer with position 0 as the most significant
    bit, so lexicographic comparison of equal-length prefixes is integer
    comparison of `value`.
    """

    length: int
    value: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise UsageError("negative prefix length")
        if not 0 <= self.value < (1 << self.length):
            raise UsageError("prefix value out of range for its length")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Prefix":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise UsageError("prefix bits must be 0 or 1")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def from_string(cls, s: str) -> "Prefix":
        if any(c not in "01" for c in s):
            raise UsageError("prefix string must consist of 0s and 1s")
        return cls(len(s), int(s, 2) if s else 0)

    @classmethod
    def from_set(cls, members: Iterable[int], length: int) -> "Prefix":
        value = 0
        for m in members:
            if 0 <= m < length:
                value |= 1 << (length - 1 - m)
        return cls(length, value)

    @classmethod
    def zeros(cls, length: int) -> "Prefix":
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "Prefix":
        return cls(length, (1 << length) - 1)

    def bit(self, n: int) -> int:
        if not 0 <= n < self.length:
            raise UsageError(f"position {n} outside prefix of length {self.length}")
        return (self.value >> (self.length - 1 - n)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(n) for n in range(self.length))

    def members(self) -> frozenset[int]:
        """Positions of the 1 bits, found by walking the set bits of `value`."""
        top = self.length - 1
        value = self.value
        out = []
        while value:
            b = value.bit_length() - 1
            out.append(top - b)
            value ^= 1 << b
        return frozenset(out)

    def to_string(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def padded(self, length: int) -> "Prefix":
        """Extend with 0s on the right; explicit, never implicit."""
        if length < self.length:
            raise UsageError("padded length shorter than prefix")
        return Prefix(length, self.value << (length - self.length))

    def truncated(self, length: int) -> "Prefix":
        if length > self.length:
            raise UsageError("truncation longer than prefix")
        return Prefix(length, self.value >> (self.length - length))

    def concat(self, other: "Prefix") -> "Prefix":
        return Prefix(self.length + other.length,
                      (self.value << other.length) | other.value)

    def is_subset_of(self, other: "Prefix") -> bool:
        if self.length != other.length:
            raise UsageError("subset comparison needs equal lengths")
        return self.value & ~other.value == 0


def rank_parity(value: int, length: int) -> int:
    """Prefix XOR of a packed stage value from position 0.

    Bit x of the result (position 0 most significant) is the parity of the
    1 bits of `value` at positions 0..x, so a 1 bit of `value` keeps a 1 in
    the result exactly when an even number of 1 bits precede it:
    `value & rank_parity(value, length)` holds every second 1 bit, starting
    with the first.  Takes log2(length) shift/xor steps.
    """
    shift = 1
    while shift < length:
        value ^= value >> shift
        shift <<= 1
    return value


def lex_cmp(a: Prefix, b: Prefix) -> int:
    """Lexicographic comparison of equal-length prefixes.

    Returns LESS/EQUAL/GREATER.  The prefix with a 1 at the least differing
    position is the greater one.
    """
    if a.length != b.length:
        raise UsageError(f"length mismatch: {a.length} != {b.length}")
    if a.value == b.value:
        return EQUAL
    return LESS if a.value < b.value else GREATER


def first_difference(a: Prefix, b: Prefix) -> Optional[int]:
    """Least position where two equal-length prefixes differ, or None."""
    if a.length != b.length:
        raise UsageError("length mismatch")
    diff = a.value ^ b.value
    if diff == 0:
        return None
    return a.length - diff.bit_length()


class ApproxProcess:
    """A stage-indexed approximation of a set: its packed stage values.

    `prefix_fn(s)` is called once per stage s < horizon.stages, when the
    process is built, and must return the stage-s prefix as a packed integer
    of horizon.bits bits; a value out of that range raises UsageError.
    `prefix(s)` and `bit(s, n)` for n < horizon.bits read the stored values.
    Positions at or past the bit horizon are answered by the optional
    `bit_fn(s, n)`, which sparse constructions give to decide membership
    arithmetically for huge positions; without one they read 0.
    """

    def __init__(self, prefix_fn: Callable[[int], int], horizon: Horizon,
                 label: str = "",
                 bit_fn: Optional[Callable[[int, int], int]] = None):
        N = horizon.bits
        prefixes = []
        p = None
        for s in range(horizon.stages):
            value = prefix_fn(s)
            # A stage that repeats its predecessor's value shares its Prefix.
            if p is None or value != p.value:
                try:
                    p = Prefix(N, value)
                except UsageError:
                    raise UsageError(f"process {label!r}: stage {s} value "
                                     f"does not fit {N} bits") from None
            prefixes.append(p)
        self._prefixes = tuple(prefixes)
        self.horizon = horizon
        self.label = label
        self.bit_fn = bit_fn

    def prefix(self, s: int) -> Prefix:
        if not 0 <= s < self.horizon.stages:
            raise UsageError(f"stage {s} outside horizon of {self.horizon.stages}")
        return self._prefixes[s]

    def bit(self, s: int, n: int) -> int:
        if not 0 <= s < self.horizon.stages:
            raise UsageError(f"stage {s} outside horizon of {self.horizon.stages}")
        p = self._prefixes[s]
        if n < p.length:
            return p.bit(n)
        return 0 if self.bit_fn is None else self.bit_fn(s, n)

    def final_prefix(self) -> Prefix:
        return self._prefixes[-1]

    def __repr__(self) -> str:
        return f"ApproxProcess({self.label!r}, {self.horizon})"


def constant_process(prefix: Prefix, horizon: Horizon, label: str = "") -> ApproxProcess:
    if prefix.length != horizon.bits:
        raise UsageError("constant prefix must match the bit horizon")
    return ApproxProcess(lambda s: prefix.value, horizon, label)


def finite_set_process(members: Iterable[int], horizon: Horizon,
                       label: str = "") -> ApproxProcess:
    value = Prefix.from_set(members, horizon.bits).value
    return ApproxProcess(lambda s: value, horizon, label)


def process_from_stage_prefixes(prefixes: Sequence[Prefix], horizon: Horizon,
                                label: str = "") -> ApproxProcess:
    if len(prefixes) != horizon.stages:
        raise UsageError("need one prefix per stage")
    for s, p in enumerate(prefixes):
        if p.length != horizon.bits:
            raise UsageError(f"process {label!r}: stage {s} prefix has "
                             f"{p.length} bits, expected {horizon.bits}")
    return ApproxProcess(lambda s: prefixes[s].value, horizon, label)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    stage: Optional[int] = None
    position: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_left_re(p: ApproxProcess) -> ValidationReport:
    """Check stage-wise lex monotonicity.

    Reports the earliest violating (stage, position) pair; `stage` is the
    stage whose prefix exceeds its successor's.
    """
    prev = p.prefix(0)
    for s in range(1, p.horizon.stages):
        cur = p.prefix(s)
        if lex_cmp(prev, cur) == GREATER:
            pos = first_difference(prev, cur)
            return ValidationReport(False, s - 1, pos,
                                    f"prefix at stage {s - 1} lex-exceeds stage {s}")
        prev = cur
    return ValidationReport(True)


def validate_monotone_membership(p: ApproxProcess, direction: str = "up") -> ValidationReport:
    """Check that per-position membership only ever moves 0->1 ('up') or 1->0 ('down').

    'up' is the subset-increasing discipline of an enumeration schedule;
    'down' is the complement-enumeration discipline of marker constructions.
    """
    prev = p.prefix(0)
    for s in range(1, p.horizon.stages):
        cur = p.prefix(s)
        bad = prev.value & ~cur.value if direction == "up" else cur.value & ~prev.value
        if bad:
            pos = p.horizon.bits - bad.bit_length()
            return ValidationReport(False, s - 1, pos,
                                    f"membership at {pos} moved the wrong way at stage {s}")
        prev = cur
    return ValidationReport(True)


class Numbering:
    """An indexed family of approximation processes on a shared horizon."""

    def __init__(self, processes: Sequence[ApproxProcess],
                 provenance: str = "derived-by-construction", label: str = ""):
        if not processes:
            self._horizon = None
        else:
            self._horizon = processes[0].horizon
            for p in processes:
                if p.horizon != self._horizon:
                    raise UsageError("all indices must share one horizon")
        self._processes = list(processes)
        self.provenance = provenance
        self.label = label

    @property
    def index_range(self) -> int:
        return len(self._processes)

    @property
    def horizon(self) -> Horizon:
        if self._horizon is None:
            raise UsageError("empty numbering has no horizon")
        return self._horizon

    def at(self, e: int) -> ApproxProcess:
        if not 0 <= e < self.index_range:
            raise UsageError(f"index {e} outside range {self.index_range}")
        return self._processes[e]

    def __iter__(self):
        return iter(self._processes)

    def validate(self) -> list[ValidationReport]:
        return [validate_left_re(p) for p in self._processes]


@dataclass(frozen=True)
class HorizonPredicate:
    """A decidable class surrogate: a deterministic predicate on processes."""
    decide: Callable[[ApproxProcess], bool]
    name: str


SCHEDULE_KINDS = ("re-set", "omega-bits", "k-set")


@dataclass(frozen=True)
class Schedule:
    """A finite list of (element, entry-stage) pairs.

    kind 're-set' / 'k-set': element x is a member from its entry stage on.
    kind 'omega-bits': element m is a bit position whose bit turns 1 at the
    entry stage; the induced bit history is validated to be lex-monotone.
    """

    entries: tuple[tuple[int, int], ...]
    kind: str = "re-set"

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise UsageError(f"unknown schedule kind {self.kind!r}")
        for x, s in self.entries:
            if x < 0 or s < 0:
                raise UsageError("schedule entries must be pairs of naturals")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], kind: str = "re-set") -> "Schedule":
        return cls(tuple((int(x), int(s)) for x, s in pairs), kind)

    def entry_stage(self, x: int) -> Optional[int]:
        stages = [s for e, s in self.entries if e == x]
        return min(stages) if stages else None

    def members_at(self, s: int) -> frozenset[int]:
        return frozenset(x for x, t in self.entries if t <= s)

    def final_members(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.entries)

    def max_member_at(self, s: int) -> Optional[int]:
        ms = self.members_at(s)
        return max(ms) if ms else None

    def bit(self, x: int, s: int) -> int:
        t = self.entry_stage(x)
        return 1 if t is not None and t <= s else 0

    def as_process(self, horizon: Horizon, label: str = "") -> ApproxProcess:
        N = horizon.bits
        entries = sorted(self.entries, key=lambda e: e[1])
        stage_values = []
        value = 0
        i = 0
        for s in range(horizon.stages):
            while i < len(entries) and entries[i][1] <= s:
                x = entries[i][0]
                if x < N:
                    value |= 1 << (N - 1 - x)
                i += 1
            stage_values.append(value)
        return ApproxProcess(lambda s: stage_values[s], horizon,
                             label or f"schedule-{self.kind}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "entries": [[x, s] for x, s in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Schedule":
        return cls.from_pairs(obj["entries"], obj.get("kind", "re-set"))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Schedule":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def schedule_member(W: Schedule, x: int, s: int) -> int:
    """Stage-s membership in an enumeration schedule."""
    if W.kind not in ("re-set", "k-set"):
        raise UsageError(f"schedule_member needs an enumeration schedule, got {W.kind!r}")
    return W.bit(x, s)


def join(e: ApproxProcess, f: ApproxProcess, label: str = "") -> ApproxProcess:
    """Interleave: bit 2x copies e at x, bit 2y+1 copies f at y."""
    if e.horizon != f.horizon:
        raise UsageError("join requires a shared horizon")
    hz = e.horizon

    def prefix_value(s: int) -> int:
        evens = [2 * x for x in e.prefix(s).members()]
        odds = [2 * y + 1 for y in f.prefix(s).members()]
        return Prefix.from_set(evens + odds, hz.bits).value

    return ApproxProcess(prefix_value, hz, label or f"join({e.label},{f.label})")


def limit_estimate(p: ApproxProcess, stability_window: int = 8) -> tuple[Prefix, bool]:
    """Final-stage prefix plus a flag: unchanged over the last `stability_window` stages."""
    S = p.horizon.stages
    final = p.prefix(S - 1)
    window = min(stability_window, S - 1)
    stable = all(p.prefix(S - 1 - k).value == final.value for k in range(1, window + 1))
    return final, stable


def index_set_estimate(nu: Numbering, pred: HorizonPredicate) -> frozenset[int]:
    """Indices whose process satisfies the predicate."""
    return frozenset(e for e in range(nu.index_range) if pred.decide(nu.at(e)))


class LimitFunctionApprox:
    """A stage approximation to a total function that settles on the horizon.

    `value(s, n)` is the stage-s guess for argument n; `arg_count` bounds the
    tracked argument range.  `settled_by` is an optional diagnostic map from
    argument to a stage bound after which the value no longer changes.
    """

    def __init__(self, value: Callable[[int, int], int], arg_count: int,
                 stages: int, settled_by: Optional[dict[int, int]] = None):
        self.value = value
        self.arg_count = arg_count
        self.stages = stages
        self.settled_by = settled_by

    @classmethod
    def from_final_values(cls, values: Sequence[int], stages: int) -> "LimitFunctionApprox":
        """Approximation showing v(n) once the stage exceeds it, 0 before.

        Keeps max over n of the stage-s values strictly below s, which is the
        admissibility condition of the marker construction.
        """
        vals = tuple(values)

        def value(s: int, n: int) -> int:
            v = vals[n] if n < len(vals) else 0
            return v if v < s else 0

        settled = {n: (vals[n] + 1 if n < len(vals) else 0) for n in range(len(vals))}
        return cls(value, len(vals), stages, settled_by=settled)

    @classmethod
    def from_changes(cls, initial: Sequence[int], changes: Sequence[tuple[int, int, int]],
                     stages: int) -> "LimitFunctionApprox":
        """Build from an initial value vector and [stage, argument, new_value] events."""
        table = [list(initial)]
        ordered = sorted(changes, key=lambda c: c[0])
        idx = 0
        for s in range(1, stages):
            row = list(table[-1])
            while idx < len(ordered) and ordered[idx][0] == s:
                _, n, v = ordered[idx]
                if not 0 <= n < len(row):
                    raise InputError(f"change references argument {n} out of range")
                row[n] = v
                idx += 1
            table.append(row)
        if idx < len(ordered):
            raise InputError("change schedule extends beyond the stage horizon")
        return cls(lambda s, n: table[s][n], len(initial), stages)

    def final(self, n: int) -> int:
        return self.value(self.stages - 1, n)

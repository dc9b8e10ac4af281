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
import sys
from bisect import bisect_right
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

Runs = Sequence[tuple[int, int]]  # ascending inclusive (start, end) runs

LESS = -1
EQUAL = 0
GREATER = 1


class UsageError(ValueError):
    """Caller violated an operation's contract (bad argument, mismatched sizes)."""


class InputError(ValueError):
    """A fixture or input file violates a validated precondition."""


class CapacityError(RuntimeError):
    """The configured horizon is too small for the requested construction."""


class InternalInvariantError(RuntimeError):
    """An invariant of a construction failed: a bug, never clamped."""


def one_bits(bits: int) -> Iterator[int]:
    """Indices of the 1 bits of an int, ascending from the least significant."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Record:
    """A value over the public attributes its `__init__` sets, in order.

    Gives what a frozen dataclass gives: `==` against a record of the same
    class, the hash of the tuple of fields and the repr
    `Name(field=value, ...)`.  Records are not frozen, but nothing assigns a
    field after `__init__`, so a hash never changes; an attribute whose name
    starts with `_` is derived and takes no part.
    """

    def _fields(self) -> tuple:
        return tuple(v for k, v in vars(self).items() if k[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return type(self).__name__ + "(" + ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if k[0] != "_") + ")"


class Horizon(Record):
    def __init__(self, stages: int, bits: int):
        if stages <= 0 or bits <= 0:
            raise UsageError("horizon must be positive in both dimensions")
        self.stages = stages
        self.bits = bits


class Prefix(Record):
    """A finite initial segment of a characteristic bit sequence.

    Bits are packed into an integer with position 0 as the most significant
    bit, so lexicographic comparison of equal-length prefixes is integer
    comparison of `value`.
    """

    def __init__(self, length: int, value: int):
        if length < 0:
            raise UsageError("negative prefix length")
        if not 0 <= value < (1 << length):
            raise UsageError("prefix value out of range for its length")
        self.length = length
        self.value = value

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

    def members(self) -> frozenset[int]:
        """Positions of the 1 bits, found by walking the set bits of `value`."""
        top = self.length - 1
        return frozenset(top - b for b in one_bits(self.value))

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

    def is_subset_of(self, other: "Prefix") -> bool:
        if self.length != other.length:
            raise UsageError("subset comparison needs equal lengths")
        return self.value & ~other.value == 0


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
    """A stage-indexed approximation of a set, stored as its change points.

    `prefix_fn(s)` returns the stage-s prefix as a packed int of horizon.bits
    bits (out of range raises UsageError).  It is called at stage 0 and at
    each of `moves`, strictly ascending ints in [1, horizon.stages), or at
    every stage when `moves` is None; a stage between two moves repeats the
    one before.  Only the change points are kept: `changes`, the ascending
    stages s >= 1 whose value differs from stage s - 1's, as 8-byte machine
    ints, and the ints `prefix_fn` returned at stage 0 and at each change,
    which a copy of another process shares.  `value(s)` is a bisect.
    Positions at or past the bit horizon are answered by the optional
    `bit_fn(s, n)` and, over a range, by the optional `runs_fn(s, lo, hi)`:
    the ascending maximal inclusive (start, end) runs of members in
    [max(lo, N), hi].  Both must describe the same set; a read past the
    horizon without the one it needs raises UsageError.
    """

    def __init__(self, prefix_fn: Callable[[int], int], horizon: Horizon,
                 label: str = "",
                 bit_fn: Optional[Callable[[int, int], int]] = None,
                 runs_fn: Optional[Callable[[int, int, int], Runs]] = None,
                 moves: Optional[Iterable[int]] = None):
        S = horizon.stages
        top = 1 << horizon.bits
        changes = bytearray()
        values = []
        last = -1
        if moves is not None and (bit_fn or runs_fn):
            moves = tuple(moves)  # read twice: here and as the past moves
        for s in chain((0,), range(1, S) if moves is None else moves):
            if type(s) is not int or not last < s < S:
                raise UsageError(f"process {label!r}: move {s!r} is not an int "
                                 f"stage after {last} and below {S}")
            last = s
            value = prefix_fn(s)
            if not values or value != values[-1]:
                try:
                    fits = 0 <= value < top
                except TypeError:
                    fits = False
                if not fits:
                    raise UsageError(f"process {label!r}: stage {s} value "
                                     f"does not fit {horizon.bits} bits")
                if s:
                    changes += s.to_bytes(8, sys.byteorder)
                values.append(value)
        # A read-only view of 8-byte ints: a sequence like a tuple, without
        # an int object per entry, and with no extension module to load.
        self.changes = memoryview(bytes(changes)).cast("q")
        self._values = tuple(values)  # stage 0's, then one per change
        self.horizon = horizon
        self.label = label
        self.bit_fn = bit_fn
        self.runs_fn = runs_fn
        self.past_moves = (() if not (bit_fn or runs_fn) else
                           range(1, S) if moves is None else moves)

    def value(self, s: int) -> int:
        """The packed stage-s value."""
        if not 0 <= s < self.horizon.stages:
            raise UsageError(f"stage {s} outside horizon of {self.horizon.stages}")
        values = self._values
        if len(values) == self.horizon.stages:  # a change at every stage
            return values[s]
        return values[bisect_right(self.changes, s)]

    def prefix(self, s: int) -> Prefix:
        return Prefix(self.horizon.bits, self.value(s))

    def _no_bits(self, at: str) -> UsageError:
        return UsageError(f"process {self.label!r} has no bits past the "
                          f"horizon of {self.horizon.bits}, read at {at}")

    def bit(self, s: int, n: int) -> int:
        value = self.value(s)
        N = self.horizon.bits
        if n < N:
            if n < 0:
                raise UsageError(f"position {n} outside prefix of length {N}")
            return (value >> (N - 1 - n)) & 1
        if self.bit_fn is None:
            raise self._no_bits(str(n))
        return self.bit_fn(s, n)

    def past_runs(self, s: int, lo: int, hi: int) -> Runs:
        """`runs_fn(s, lo, hi)`, checked to be ascending maximal runs inside
        [max(lo, N), hi]; no runs when hi < N.  A missing `runs_fn` or an
        answer that is not such runs raises UsageError."""
        floor = max(lo, self.horizon.bits)
        if hi < floor:
            return []
        if not 0 <= s < self.horizon.stages:
            raise UsageError(f"stage {s} outside horizon of {self.horizon.stages}")
        if self.runs_fn is None:
            raise self._no_bits(f"{floor}..{hi}")
        runs = self.runs_fn(s, lo, hi)
        end = floor - 2
        for a, b in runs:
            if not end + 2 <= a <= b <= hi:
                raise UsageError(
                    f"process {self.label!r}: stage {s} answers {(a, b)}, not "
                    f"an ascending maximal run inside [{floor}, {hi}]")
            end = b
        return runs

    def final_prefix(self) -> Prefix:
        return Prefix(self.horizon.bits, self._values[-1])

    def __repr__(self) -> str:
        return f"ApproxProcess({self.label!r}, {self.horizon})"


def stage_runs(value: int, length: int, lo: int, hi: int, past: Runs) -> Runs:
    """Ascending maximal runs of members in [lo, hi]: those of a packed
    value of `length` bits below that length, joined to `past`, the runs
    at or past it."""
    top = min(hi, length - 1)
    runs = []
    if lo <= top:
        w = (value >> (length - 1 - top)) & ((1 << (top - lo + 1)) - 1)
        while w:
            # Bits k - 1 down to z of w are the next run of 1s; bit i of w
            # is position top - i.
            k = w.bit_length()
            z = (~w & ((1 << k) - 1)).bit_length()
            runs.append((top + 1 - k, top - z))
            w &= (1 << z) - 1
    if runs and past and past[0][0] == runs[-1][1] + 1:
        runs[-1] = (runs[-1][0], past[0][1])
        past = past[1:]
    return runs + list(past)


def complement_runs(runs: Runs, lo: int, hi: int) -> Runs:
    """The gaps of ascending maximal runs inside [lo, hi], as runs."""
    gaps = []
    for a, b in runs:
        if a > lo:
            gaps.append((lo, a - 1))
        lo = b + 1
    if lo <= hi:
        gaps.append((lo, hi))
    return gaps


def first_mismatch(x: Runs, y: Runs) -> Optional[int]:
    """Least position in exactly one of two ascending maximal run lists."""
    for (a, b), (c, d) in zip(x, y):
        if a != c:
            return min(a, c)
        if b != d:
            return min(b, d) + 1
    if len(x) == len(y):
        return None
    return max(x, y, key=len)[min(len(x), len(y))][0]


def mirror_mismatch(a: Runs, b: Runs, lo: int, hi: int) -> Optional[int]:
    """Least u in [lo, hi] with u in `a` iff hi + lo - u in `b`, for runs
    inside [lo, hi]: where `a` differs from the mirror image of b's gaps."""
    gaps = complement_runs(b, lo, hi)
    return first_mismatch(a, [(hi + lo - e, hi + lo - s)
                              for s, e in reversed(gaps)])


def change_stages(processes: Iterable[ApproxProcess]) -> set[int]:
    """Stage 0 and every stage at which one of the processes changes value."""
    return {0}.union(*(p.changes for p in processes))


def moves_within(stages: Iterable[int], horizon: Horizon) -> list[int]:
    """The given stages that lie in [1, horizon.stages), ascending and once
    each: the `moves` of a writer that can move only at those stages."""
    return sorted({s for s in stages if 0 < s < horizon.stages})


def points_process(points: dict[int, int], horizon: Horizon,
                   label: str = "") -> ApproxProcess:
    """The process whose value from each stage of `points` on is the value
    it maps to.  The stages are inserted in ascending order, stage 0 first,
    and all lie inside the horizon."""
    stages = list(points)
    values = list(points.values())
    return ApproxProcess(lambda s: values[bisect_right(stages, s) - 1],
                         horizon, label, moves=stages[1:])


def derived_process(source: ApproxProcess, fn: Callable[[int], int],
                    label: str = "") -> ApproxProcess:
    """The process whose stage-s value is `fn(source.value(s))`; `fn` is
    called only at stage 0 and at `source.changes`."""
    return ApproxProcess(lambda s: fn(source.value(s)), source.horizon, label,
                         moves=source.changes)


def finite_set_process(members: Iterable[int], horizon: Horizon,
                       label: str = "") -> ApproxProcess:
    """The process that shows the same set of positions at every stage."""
    value = Prefix.from_set(members, horizon.bits).value
    return ApproxProcess(lambda s: value, horizon, label, moves=())


class ValidationReport(Record):
    def __init__(self, ok: bool, stage: Optional[int] = None,
                 position: Optional[int] = None, reason: str = "",
                 checked: int = 0):
        self.ok = ok
        self.stage = stage
        self.position = position
        self.reason = reason
        self.checked = checked  # how much was verified, for checks that count it

    def __bool__(self) -> bool:
        return self.ok


def validate_left_re(p: ApproxProcess) -> ValidationReport:
    """Check stage-wise lex monotonicity.

    Reports the earliest violating (stage, position) pair; `stage` is the
    stage whose prefix exceeds its successor's.  Only the change points are
    walked.
    """
    values = p._values
    for i, s in enumerate(p.changes, 1):
        prev, cur = values[i - 1], values[i]
        if prev > cur:
            pos = p.horizon.bits - (prev ^ cur).bit_length()
            return ValidationReport(False, s - 1, pos,
                                    f"prefix at stage {s - 1} lex-exceeds stage {s}")
    return ValidationReport(True)


def validate_monotone_membership(p: ApproxProcess, direction: str = "up") -> ValidationReport:
    """Check that per-position membership only ever moves 0->1 ('up') or 1->0 ('down').

    'up' is the subset-increasing discipline of an enumeration schedule;
    'down' is the complement-enumeration discipline of marker constructions.
    """
    if direction not in ("up", "down"):
        raise UsageError(f"direction must be 'up' or 'down', not {direction!r}")
    values = p._values
    for i, s in enumerate(p.changes, 1):
        prev, cur = values[i - 1], values[i]
        bad = prev & ~cur if direction == "up" else cur & ~prev
        if bad:
            pos = p.horizon.bits - bad.bit_length()
            return ValidationReport(False, s - 1, pos,
                                    f"membership at {pos} moved the wrong way at stage {s}")
    return ValidationReport(True)


class Numbering:
    """An indexed family of approximation processes on a shared horizon."""

    def __init__(self, processes: Sequence[ApproxProcess]):
        if not processes:
            self._horizon = None
        else:
            self._horizon = processes[0].horizon
            for p in processes:
                if p.horizon != self._horizon:
                    raise UsageError("all indices must share one horizon")
        self._processes = list(processes)

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


class Schedule(Record):
    """A finite list of (element, entry-stage) pairs.

    Element x is a member (of W_e, of K, or of the 1 bits of a history such
    as Omega's) from its entry stage on; nothing leaves, so the induced bit
    history is lex-monotone.
    """

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        for x, s in entries:
            if x < 0 or s < 0:
                raise UsageError("schedule entries must be pairs of naturals")
        self.entries = entries

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Schedule":
        return cls(tuple((int(x), int(s)) for x, s in pairs))

    def entry_stage(self, x: int) -> Optional[int]:
        stages = [s for e, s in self.entries if e == x]
        return min(stages) if stages else None

    def members_at(self, s: int) -> frozenset[int]:
        return frozenset(x for x, t in self.entries if t <= s)

    def final_members(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.entries)

    def bit(self, x: int, s: int) -> int:
        t = self.entry_stage(x)
        return 1 if t is not None and t <= s else 0

    def as_process(self, horizon: Horizon, label: str = "schedule") -> ApproxProcess:
        """The bit history on `horizon`, built at entry stages only; an entry
        at or past either horizon adds nothing."""
        N = horizon.bits
        points = {0: 0}  # entry stage -> value from that stage on
        value = 0
        for x, s in sorted(self.entries, key=lambda e: e[1]):
            if s < horizon.stages and x < N:
                value |= 1 << (N - 1 - x)
                points[s] = value
        return points_process(points, horizon, label)


def join(e: ApproxProcess, f: ApproxProcess, label: str = "") -> ApproxProcess:
    """Interleave: bit 2x copies e at x, bit 2y+1 copies f at y."""
    if e.horizon != f.horizon:
        raise UsageError("join requires a shared horizon")
    hz = e.horizon

    def prefix_value(s: int) -> int:
        evens = [2 * x for x in e.prefix(s).members()]
        odds = [2 * y + 1 for y in f.prefix(s).members()]
        return Prefix.from_set(evens + odds, hz.bits).value

    return ApproxProcess(prefix_value, hz, label or f"join({e.label},{f.label})",
                         moves=moves_within([*e.changes, *f.changes], hz))


STABILITY_WINDOW = 8  # trailing stages a limit estimate must hold still over


def limit_estimate(p: ApproxProcess) -> tuple[Prefix, bool]:
    """Final-stage prefix plus a flag: no change in the last STABILITY_WINDOW stages."""
    S = p.horizon.stages
    window = min(STABILITY_WINDOW, S - 1)
    return p.prefix(S - 1), not p.changes or p.changes[-1] < S - window


def index_set_estimate(nu: Numbering,
                       pred: Callable[[ApproxProcess], bool]) -> frozenset[int]:
    """Indices whose process satisfies the predicate, a decidable surrogate
    for membership of the index in a class of sets."""
    return frozenset(e for e in range(nu.index_range) if pred(nu.at(e)))


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

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (EQUAL, GREATER, LESS, STABILITY_WINDOW,
                         ApproxProcess, Horizon, InputError, Numbering,
                         Prefix, Schedule, UsageError, ValidationReport,
                         change_stages, complement_runs, derived_process,
                         first_difference, first_mismatch, join, lex_cmp,
                         limit_estimate, mirror_mismatch, stage_runs,
                         validate_left_re, validate_monotone_membership)
from leftre.fixtures import bambam_infinite_process, random_catalog
from leftre.genericity import IndifferenceReport, RequirementList
from leftre.relations import RelationOracle
from leftre.selfref import singleton_numbering_infinite
from leftre.zulu import BlockLayout, ZuluState

HZ = Horizon(16, 24)


def bits_of(p: Prefix) -> list[int]:
    return [p.bit(n) for n in range(p.length)]


class TestPrefix:
    def test_roundtrip_string(self):
        p = Prefix.from_string("10110")
        assert p.to_string() == "10110"
        assert p.members() == {0, 2, 3}

    def test_position_zero_is_most_significant(self):
        p = Prefix.from_string("100")
        assert p.value == 4
        assert p.bit(0) == 1 and p.bit(2) == 0

    def test_padded_truncated(self):
        p = Prefix.from_string("101")
        assert p.padded(5).to_string() == "10100"
        assert p.padded(5).truncated(3) == p
        with pytest.raises(UsageError):
            p.truncated(4)

    def test_subset(self):
        a = Prefix.from_string("0101")
        b = Prefix.from_string("0111")
        assert a.is_subset_of(b) and not b.is_subset_of(a)


class TestLexOrder:
    def test_one_at_least_difference_wins(self):
        assert lex_cmp(Prefix.from_string("0111"), Prefix.from_string("1000")) == LESS

    @given(st.integers(1, 30), st.data())
    def test_agrees_with_string_compare(self, length, data):
        # Independent oracle: lex order on 0/1 strings is plain string order.
        a = data.draw(st.integers(0, (1 << length) - 1))
        b = data.draw(st.integers(0, (1 << length) - 1))
        pa, pb = Prefix(length, a), Prefix(length, b)
        sa, sb = pa.to_string(), pb.to_string()
        expected = LESS if sa < sb else GREATER if sa > sb else EQUAL
        assert lex_cmp(pa, pb) == expected

    @given(st.integers(1, 30), st.data())
    def test_first_difference_oracle(self, length, data):
        a = data.draw(st.integers(0, (1 << length) - 1))
        b = data.draw(st.integers(0, (1 << length) - 1))
        pa, pb = Prefix(length, a), Prefix(length, b)
        naive = next((n for n in range(length) if pa.bit(n) != pb.bit(n)), None)
        assert first_difference(pa, pb) == naive

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            lex_cmp(Prefix.from_string("1"), Prefix.from_string("10"))


def staged(values):
    """The process showing values[s] at stage s, then the last one."""
    return ApproxProcess(lambda s: values[min(s, len(values) - 1)], HZ)


class TestValidators:
    def test_monotone_passes(self):
        assert validate_left_re(staged([0, 5, 5, 9, 100])).ok

    def test_decrease_caught_with_position(self):
        p = staged([0, 8, 4])
        r = validate_left_re(p)
        assert not r.ok and r.stage == 1
        assert r.position == first_difference(Prefix(HZ.bits, 8), Prefix(HZ.bits, 4))

    @pytest.mark.parametrize("s", [-1, HZ.stages])
    def test_stage_outside_horizon_raises(self, s):
        p = staged([0, 5])
        with pytest.raises(UsageError):
            p.prefix(s)
        with pytest.raises(UsageError):
            p.bit(s, 0)

    def test_bit_past_horizon_without_bit_fn_raises(self):
        p = staged([0, 5])
        assert p.bit(1, HZ.bits - 1) == 1
        with pytest.raises(UsageError, match="past the horizon"):
            p.bit(1, HZ.bits)

    @pytest.mark.parametrize("value", [-1, 1 << HZ.bits],
                             ids=["negative", "too-wide"])
    def test_out_of_range_stage_value_raises(self, value):
        with pytest.raises(UsageError, match="stage 3"):
            ApproxProcess(lambda s: value if s == 3 else 0, HZ, "bad")

    def test_membership_direction(self):
        up = staged([0, 1, 3])
        assert validate_monotone_membership(up, "up").ok
        # A lex increase that drops a member is fine for left-r.e. but not
        # for the subset discipline.
        mixed = staged([1, 2])
        assert validate_left_re(mixed).ok
        assert not validate_monotone_membership(mixed, "up").ok
        assert not validate_monotone_membership(mixed, "down").ok

    def test_membership_direction_unknown(self):
        with pytest.raises(UsageError, match="'sideways'"):
            validate_monotone_membership(staged([0, 1]), "sideways")


class TestSchedule:
    def test_members_accumulate(self):
        W = Schedule.from_pairs([(3, 1), (5, 4)])
        assert W.members_at(0) == frozenset()
        assert W.members_at(1) == {3}
        assert W.final_members() == {3, 5}

    def test_as_process_valid(self):
        W = Schedule.from_pairs([(2, 3), (0, 5), (7, 1)])
        p = W.as_process(HZ)
        assert validate_left_re(p).ok
        assert validate_monotone_membership(p, "up").ok


class TestRecord:
    """Records keep the equality, hash and repr of the frozen dataclasses
    they replace; the reprs are those the dataclasses printed."""

    REPRS = [
        (lambda: Prefix(3, 5), "Prefix(length=3, value=5)"),
        (lambda: Horizon(2, 4), "Horizon(stages=2, bits=4)"),
        (lambda: ValidationReport(False, 1, 2, "r", 3),
         "ValidationReport(ok=False, stage=1, position=2, reason='r', "
         "checked=3)"),
        (lambda: ValidationReport(True),
         "ValidationReport(ok=True, stage=None, position=None, reason='', "
         "checked=0)"),
        (lambda: Schedule.from_pairs([(1, 2), (3, 5)]),
         "Schedule(entries=((1, 2), (3, 5)))"),
        (lambda: BlockLayout(2), "BlockLayout(n_cap=2)"),
        (lambda: RelationOracle((1, 2), ((0, 0, 1), (1, 1, 2))),
         "RelationOracle(rows=(1, 2), groups=((0, 0, 1), (1, 1, 2)))"),
        (lambda: RelationOracle((3,)), "RelationOracle(rows=(3,), groups=None)"),
        (lambda: RequirementList.from_strings([["1"]]),
         "RequirementList(reqs=(frozenset({'1'}),))"),
        (lambda: IndifferenceReport(True, (1, 2), 4, ()),
         "IndifferenceReport(ok=True, positions=(1, 2), variants_checked=4, "
         "failures=())"),
        (lambda: ApproxProcess(lambda s: 0, Horizon(2, 4), "p"),
         "ApproxProcess('p', Horizon(stages=2, bits=4))"),
    ]

    @pytest.mark.parametrize("make,text", REPRS)
    def test_repr(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make,fields", [
        (lambda: Prefix(3, 5), (3, 5)),
        (lambda: Horizon(2, 4), (2, 4)),
        (lambda: ValidationReport(False, 1, 2, "r", 3), (False, 1, 2, "r", 3)),
        (lambda: Schedule.from_pairs([(1, 2)]), (((1, 2),),)),
        (lambda: BlockLayout(2), (2,)),
        (lambda: RelationOracle((1, 2)), ((1, 2), None)),
        (lambda: IndifferenceReport(True, (1,), 2, ()), (True, (1,), 2, ())),
    ])
    def test_equal_records_share_the_tuple_hash(self, make, fields):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)

    def test_other_classes_are_unequal(self):
        assert Prefix(3, 5) != Horizon(3, 5)
        assert Horizon(3, 5) != Prefix(3, 5)
        assert Prefix(3, 5) != (3, 5)
        assert Prefix(3, 5) != Prefix(3, 4)
        assert ValidationReport(True) != ValidationReport(True, checked=1)

    @pytest.mark.parametrize("make,error,message", [
        (lambda: Horizon(0, 4), UsageError, "horizon must be positive"),
        (lambda: Horizon(4, -1), UsageError, "horizon must be positive"),
        (lambda: Prefix(-1, 0), UsageError, "negative prefix length"),
        (lambda: Prefix(2, 4), UsageError, "prefix value out of range"),
        (lambda: Prefix(2, -1), UsageError, "prefix value out of range"),
        (lambda: Schedule(((1, 2), (-1, 0))), UsageError,
         "schedule entries must be pairs of naturals"),
        (lambda: RequirementList((frozenset({"012"}),)), UsageError,
         "requirement strings must be binary"),
        (lambda: ZuluState(Schedule(((0, 3),)), BlockLayout(2)), InputError,
         "bit 0 of the driving history must stay 0"),
    ])
    def test_validating_init_raises(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_layout_hash_ignores_its_bounds_table(self):
        layout = BlockLayout(3)
        before = hash(layout)
        assert layout.offset(1) == 0
        assert hash(layout) == before == hash(BlockLayout(3)) == hash((3,))


class TestJoin:
    def test_interleaves(self):
        e = staged([Prefix.from_set({0, 2}, HZ.bits).value])
        f = staged([Prefix.from_set({1}, HZ.bits).value])
        j = join(e, f)
        assert j.final_prefix().members() == {0, 4, 3}


class TestLimitEstimate:
    def test_stable_flag(self):
        final, stable = limit_estimate(staged([0, 7]))
        assert final.value == 7 and stable

    def test_unstable_flag(self):
        _, stable = limit_estimate(ApproxProcess(lambda s: s, HZ))
        assert not stable


class TestNumbering:
    def test_horizon_mismatch(self):
        with pytest.raises(UsageError):
            Numbering([staged([0]),
                       ApproxProcess(lambda s: 0, Horizon(8, 8))])

    def test_validate_all(self):
        nu = Numbering([staged([0, 3]), staged([1, 1, 9])])
        assert all(r.ok for r in nu.validate())


def validate_left_re_reference(p):
    """Slow oracle for validate_left_re: every pair of adjacent stages."""
    prev = p.prefix(0)
    for s in range(1, p.horizon.stages):
        cur = p.prefix(s)
        if lex_cmp(prev, cur) == GREATER:
            pos = first_difference(prev, cur)
            return ValidationReport(False, s - 1, pos,
                                    f"prefix at stage {s - 1} lex-exceeds stage {s}")
        prev = cur
    return ValidationReport(True)


def validate_monotone_membership_reference(p, direction):
    """Slow oracle for validate_monotone_membership: every pair of adjacent
    stages."""
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


def limit_estimate_reference(p):
    """Slow oracle for limit_estimate: re-reads the trailing window."""
    S = p.horizon.stages
    final = p.prefix(S - 1)
    window = min(STABILITY_WINDOW, S - 1)
    stable = all(p.prefix(S - 1 - k).value == final.value
                 for k in range(1, window + 1))
    return final, stable


@st.composite
def stage_values(draw, bits):
    """Stage values in runs of repeats, as drawn, sorted (left-r.e.), or made
    nested upward or downward, over 1 to 20 stages."""
    runs = draw(st.lists(st.tuples(st.integers(0, (1 << bits) - 1),
                                   st.integers(1, 4)), min_size=1, max_size=8))
    values = [v for v, k in runs for _ in range(k)][:20]
    shape = draw(st.sampled_from(["drawn", "sorted", "up", "down"]))
    if shape == "sorted":
        values.sort()
    elif shape in ("up", "down"):
        acc = values[0]
        for s, v in enumerate(values):
            acc = acc | v if shape == "up" else acc & v
            values[s] = acc
    return values


class TestChanges:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6), st.data())
    def test_per_stage_references_agree(self, bits, data):
        values = data.draw(stage_values(bits))
        p = ApproxProcess(values.__getitem__, Horizon(len(values), bits))
        assert list(p.changes) == [s for s in range(1, len(values))
                                   if values[s] != values[s - 1]]
        assert validate_left_re(p) == validate_left_re_reference(p)
        for direction in ("up", "down"):
            assert validate_monotone_membership(p, direction) == \
                validate_monotone_membership_reference(p, direction)
        assert limit_estimate(p) == limit_estimate_reference(p)
        for s, value in enumerate(values):
            assert p.value(s) == value
            assert p.prefix(s) == Prefix(bits, value)
            assert [p.bit(s, n) for n in range(bits)] == bits_of(p.prefix(s))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 20), st.data())
    def test_change_stages_is_stage_0_and_every_change(self, S, data):
        hz = Horizon(S, 4)
        rows = data.draw(st.lists(st.lists(st.integers(0, 15), min_size=S,
                                           max_size=S), max_size=4))
        processes = [ApproxProcess(row.__getitem__, hz) for row in rows]
        assert change_stages(processes) == {0} | {
            s for row in rows for s in range(1, S) if row[s] != row[s - 1]}

    def test_single_stage_horizon(self):
        p = ApproxProcess(lambda s: 5, Horizon(1, 4))
        assert tuple(p.changes) == ()
        assert change_stages([p]) == {0}
        assert limit_estimate(p) == (Prefix(4, 5), True)

    def test_stable_iff_the_last_change_precedes_the_window(self):
        S = HZ.stages
        for t in range(1, S):
            p = ApproxProcess(lambda s: int(s >= t), HZ)
            assert tuple(p.changes) == (t,)
            assert limit_estimate(p)[1] == (t < S - STABILITY_WINDOW)


class TestMoves:
    """The `moves` contract: `prefix_fn` runs at stage 0 and at each move,
    and every stage in between repeats the move before it."""

    def test_a_move_that_repeats_its_predecessor_is_no_change(self):
        # Stage 2 is a move whose value equals stage 0's, by value with an
        # int of its own; stage 5 changes, stage 6 repeats it.  The values
        # are wider than the interpreter's cached small ints, so sharing is
        # not an accident of caching.
        a, b = 5 << 100, 9 << 100
        table = {0: a, 2: int(str(a)), 5: b, 6: int(str(b))}
        calls = []

        def fn(s):
            calls.append(s)
            return table[s]

        p = ApproxProcess(fn, Horizon(8, 104), "p", moves=[2, 5, 6])
        assert calls == [0, 2, 5, 6]
        assert tuple(p.changes) == (5,)
        assert [p.value(s) for s in range(8)] == [a] * 5 + [b] * 3
        assert all(p.value(s) is a for s in range(5))
        assert all(p.value(s) is b for s in range(5, 8))

    def test_no_moves_calls_stage_0_only(self):
        calls = []
        p = ApproxProcess(lambda s: calls.append(s) or 3, Horizon(1 << 40, 4),
                          "still", moves=())
        assert calls == [0] and tuple(p.changes) == ()
        assert p.value((1 << 40) - 1) == 3 and p.final_prefix() == Prefix(4, 3)

    @pytest.mark.parametrize("moves", [[3, 2], [2, 2], [0, 1], [1, 8], [-1],
                                       [1.0], ["1"], [True], [None]],
                             ids=["descending", "repeated", "stage-0",
                                  "past-horizon", "negative", "float", "str",
                                  "bool", "none"])
    def test_bad_moves_raise_naming_the_label(self, moves):
        with pytest.raises(UsageError, match="process 'bad': move"):
            ApproxProcess(lambda s: 0, Horizon(8, 4), "bad", moves=moves)

    @pytest.mark.parametrize("value", [-1, 1 << 4, None],
                             ids=["negative", "too-wide", "none"])
    def test_every_stored_value_is_range_checked(self, value):
        with pytest.raises(UsageError, match="'bad': stage 5 value"):
            ApproxProcess(lambda s: value if s == 5 else 0, Horizon(8, 4),
                          "bad", moves=[3, 5])
        with pytest.raises(UsageError, match="'bad': stage 0 value"):
            ApproxProcess(lambda s: value, Horizon(8, 4), "bad", moves=[3])

    @pytest.mark.parametrize("past", ["bit_fn", "runs_fn", "both", "none"])
    @pytest.mark.parametrize("kind", ["generator", "iterator", "list", "None"])
    def test_past_moves_are_the_moves(self, past, kind):
        # A generator or iterator is read once; a process with a past answer
        # keeps its moves as given, and without moves every stage is one.
        hz = Horizon(16, 4)
        fns = {"bit_fn": lambda s, n: s // 5 & 1,
               "runs_fn": lambda s, lo, hi: []}
        given = {"generator": (s for s in (5, 10, 15)),
                 "iterator": iter([5, 10, 15]), "list": [5, 10, 15],
                 "None": None}[kind]
        p = ApproxProcess(lambda s: s // 5, hz, "p", moves=given,
                          **{k: v for k, v in fns.items() if past in (k, "both")})
        assert tuple(p.changes) == (5, 10, 15)
        assert tuple(p.past_moves) == (
            () if past == "none" else tuple(range(1, 16)) if kind == "None"
            else (5, 10, 15))

    @pytest.mark.parametrize("stage", [-1, 8, 1 << 40])
    def test_value_outside_the_horizon_raises(self, stage):
        p = ApproxProcess(lambda s: s, Horizon(8, 4), "p", moves=[2, 7])
        assert [p.value(s) for s in range(8)] == [0, 0, 2, 2, 2, 2, 2, 7]
        with pytest.raises(UsageError, match="outside horizon of 8"):
            p.value(stage)


def as_process_reference(W, hz):
    """Slow oracle for Schedule.as_process: each stage's members packed on
    their own, dropping elements at or past the bit horizon."""
    return [Prefix.from_set(W.members_at(s), hz.bits).value
            for s in range(hz.stages)]


class TestScheduleProcess:
    def test_edge_entries(self):
        # Two entries at stage 2, element 1 entered twice, element 4 past
        # the bits, stages 4 and 9 past the horizon.
        W = Schedule.from_pairs([(1, 2), (3, 2), (1, 1), (4, 0), (0, 4),
                                 (2, 9)])
        p = W.as_process(Horizon(4, 4))
        assert [p.value(s) for s in range(4)] == [0, 0b0100, 0b0101, 0b0101]
        assert tuple(p.changes) == (1, 2)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_per_stage_reference(self, S, N, data):
        # Few distinct elements and stages, up to 3 past either horizon, so
        # stages hold several entries and elements repeat.
        hz = Horizon(S, N)
        W = Schedule.from_pairs(data.draw(st.lists(st.tuples(
            st.integers(0, N + 2), st.integers(0, S + 2)), max_size=16)))
        p = W.as_process(hz)
        assert [p.value(s) for s in range(S)] == as_process_reference(W, hz)


class TestDerivedProcess:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 6), st.data())
    def test_fn_at_stage_0_and_source_changes(self, bits, data):
        values = data.draw(stage_values(bits))
        source = ApproxProcess(values.__getitem__, Horizon(len(values), bits))
        table = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                   min_size=1 << bits, max_size=1 << bits))
        calls = []

        def fn(v):
            calls.append(v)
            return table[v]

        p = derived_process(source, fn, "derived")
        assert [p.value(s) for s in range(len(values))] == \
            [table[v] for v in values]
        assert calls == [values[s] for s in sorted(change_stages([source]))]
        assert p.horizon == source.horizon and p.label == "derived"


class TestStorage:
    """A process stores one int per change point and no `Prefix`; a copy of
    another process's values holds that process's int objects."""

    def test_a_process_holds_its_ints_not_wrappers(self):
        hz = Horizon(256, 4096)
        values = [(1 << 4095) | s for s in range(256)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = ApproxProcess(values.__getitem__, hz)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 256 change points, each a stage and a value slot, take about 4 KB;
        # a Prefix per stage would add about 100 B each.
        assert held < 8192, held
        assert all(p.value(s) is values[s] for s in range(256))

    def test_change_stages_take_no_int_object_each(self):
        # Every stage changes; most stage numbers are past the interpreter's
        # cached small ints, and the values are int objects of their own.
        values = [2 * s for s in range(2048)]
        tracemalloc.start()
        try:
            p = ApproxProcess(values.__getitem__, Horizon(2048, 12))
            assert len(p.changes) == 2047
            before = tracemalloc.get_traced_memory()[0]
            del p.changes
            held = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 8 bytes per change stage; a tuple of ints takes about 74 KB.
        assert held <= 20 * 1024, held

    def test_bambam_copies_hold_the_ints_of_their_source(self):
        hz = Horizon(64, 128)
        A = bambam_infinite_process(hz)
        R = list(range(1, 12, 2))
        gamma = singleton_numbering_infinite(
            A, R, random_catalog(13, 6, hz, "bambam-base"))
        copies = [e for e in range(gamma.index_range) if e not in R]
        assert copies
        for e in copies:
            for s in range(hz.stages):
                u = max((t for t in range(s + 1) if A.bit(t, e)), default=0)
                assert gamma.at(e).value(s) is A.value(u), (e, s)


def set_of_runs(runs) -> set[int]:
    return {u for a, b in runs for u in range(a, b + 1)}


def runs_of_set(members, lo, hi):
    """Ascending maximal runs of a set inside [lo, hi], position by position."""
    runs = []
    for u in range(lo, hi + 1):
        if u in members:
            if runs and runs[-1][1] == u - 1:
                runs[-1] = (runs[-1][0], u)
            else:
                runs.append((u, u))
    return runs


@st.composite
def window_sets(draw):
    """A window [lo, hi] and two member sets inside it."""
    lo = draw(st.integers(0, 20))
    hi = lo + draw(st.integers(0, 40))
    members = st.sets(st.integers(lo, hi))
    return lo, hi, draw(members), draw(members)


class TestRuns:
    """The run helpers against position-by-position oracles."""

    @settings(max_examples=200)
    @given(window_sets(), st.integers(1, 64))
    def test_stage_runs(self, case, length):
        lo, hi, members, past = case
        below = {u for u in members if u < length}
        p = Prefix.from_set(below, length)
        past_runs = runs_of_set({u for u in past if u >= length}, lo, hi)
        got = stage_runs(p.value, length, lo, hi, past_runs)
        assert got == runs_of_set(
            below | {u for u in past if u >= length}, lo, hi)

    @settings(max_examples=200)
    @given(window_sets())
    def test_complement_and_mismatch(self, case):
        lo, hi, a, b = case
        x, y = runs_of_set(a, lo, hi), runs_of_set(b, lo, hi)
        assert complement_runs(x, lo, hi) == runs_of_set(
            set(range(lo, hi + 1)) - a, lo, hi)
        assert first_mismatch(x, y) == min(a ^ b, default=None)
        link = {u for u in range(lo, hi + 1) if (u in a) == (hi + lo - u in b)}
        assert mirror_mismatch(x, y, lo, hi) == min(link, default=None)

    def test_past_runs_checks_its_answer(self):
        answers = {0: [(10, 12), (15, 15)], 1: [(10, 12), (13, 15)],
                   2: [(12, 14), (10, 11)], 3: [(7, 9)], 4: [(20, 21)],
                   5: [(12, 11)]}
        p = ApproxProcess(lambda s: 0, Horizon(6, 8), "p",
                          runs_fn=lambda s, lo, hi: answers[s])
        assert p.past_runs(0, 3, 20) == [(10, 12), (15, 15)]
        assert p.past_runs(0, 3, 7) == []  # wholly below the horizon
        for s in range(1, 6):  # adjacent, unordered, below 8, past 20, empty
            with pytest.raises(UsageError, match=f"'p': stage {s} answers"):
                p.past_runs(s, 3, 20)
        with pytest.raises(UsageError, match="stage 6 outside horizon of 6"):
            p.past_runs(6, 3, 20)
        bare = ApproxProcess(lambda s: 0, Horizon(6, 8), "bare")
        with pytest.raises(UsageError, match="'bare' has no bits past the "
                           "horizon of 8, read at 8..20"):
            bare.past_runs(0, 3, 20)

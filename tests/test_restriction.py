"""Horizon restriction: a run at S x N is the S x N window of the same
construction at any larger horizon S' x N'.

The paper's sets are infinite, so a finite run is faithful only if a larger
horizon does not change what it already showed.  Each construction is built
from fixed inputs that fit both horizons (every member below N), and for
every stage s < S its stage-s value at S x N must equal the first N bits of
its stage-s value at S' x N'.  The schedule-driven writers (`as_process`,
`b_from_k`, `membership_process`) also take elements between N and N',
which the smaller run must leave out.

A construction that answers past the horizon must also answer there as a
wider run stores: its `bit_fn` (and `runs_fn`, where it has one) at S x N,
read over [N, N'), must equal the packed bits of the same stage at S x N'.

`build_diagonal` is checked only where the smaller horizon raises no
`CapacityError`: F(e) reads the (e+1)-st zero of each catalog stage value,
and a catalog index may have fewer zeros below N than below N'.  So are
`excise` and `make_into_itself`, whose switch string copies a stage prefix
up to its first 0, which a prefix that is all ones below N lacks.  Their
boundary set is a schedule's process here: the fixture's late boundary set
moves at the last stage, which is not the same stage at S and at S'.  These
three are compared with the run at S x N', which must build, and with the
run at S' x N' unless that one runs out of capacity on a stage or an index
the small run does not have (see `wider_runs`).
"""
import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (ApproxProcess, CapacityError, Horizon, Numbering,
                         Prefix, Schedule)
from leftre.diagonal import build_diagonal
from leftre.markers import MarkerSystem
from leftre.relations import b_from_k
from leftre.selfref import (SelfRefPlan, build_selfref_plan, excise,
                            infinite_indexset_gadget, make_into_itself)
from leftre.zulu import (BlockLayout, ZuluState, build_maximal, build_minimal,
                         max_join_gadget, maxsep_superset, split_subset,
                         split_superset, tilde_set)


@st.composite
def horizon_pairs(draw, bits=24):
    """S x N and S' x N' with S <= S' and N <= N', each of N and N' - N at
    most `bits`."""
    S, N = draw(st.integers(1, 8)), draw(st.integers(1, bits))
    return (Horizon(S, N), Horizon(S + draw(st.integers(0, 8)),
                                   N + draw(st.integers(0, bits))))


def assert_restricts(small: ApproxProcess, big: ApproxProcess) -> None:
    N = small.horizon.bits
    for s in range(small.horizon.stages):
        assert small.prefix(s) == big.prefix(s).truncated(N), s


def assert_past_matches(small: ApproxProcess, wide: ApproxProcess) -> None:
    """`small`'s past-horizon answers over [N, N') against the packed bits
    of `wide`, the same construction at S x N'."""
    N, wide_N = small.horizon.bits, wide.horizon.bits
    for s in range(small.horizon.stages):
        bits = [wide.prefix(s).bit(n) for n in range(N, wide_N)]
        assert [small.bit_fn(s, n) for n in range(N, wide_N)] == bits, s
        if small.runs_fn is not None:
            members = {n for n, b in enumerate(bits, N) if b}
            starts = [n for n in sorted(members) if n - 1 not in members]
            ends = [n for n in sorted(members) if n + 1 not in members]
            assert small.past_runs(s, N, wide_N - 1) == list(zip(starts, ends))


def schedule_numbering(catalog, h: Horizon) -> Numbering:
    return Numbering([Schedule.from_pairs(c).as_process(h) for c in catalog])


EMPTY = Schedule.from_pairs([])


def entries(data, wide: Horizon, elements: int) -> list[tuple[int, int]]:
    """(element, stage) pairs with elements below `elements` and stages up
    to two past the wider horizon's last."""
    return data.draw(st.lists(st.tuples(st.integers(0, elements - 1),
                                        st.integers(0, wide.stages + 1)),
                              max_size=12))


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_schedule_as_process(hzs, data):
    hz, wide = hzs
    W = Schedule.from_pairs(entries(data, wide, wide.bits))
    assert_restricts(W.as_process(hz), W.as_process(wide))


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_b_from_k(hzs, data):
    # x codes positions 2x and 2x + 1, so K reaches the pair holding N' - 1.
    hz, wide = hzs
    K = Schedule.from_pairs(entries(data, wide, (wide.bits + 1) // 2))
    assert_restricts(b_from_k(K, hz), b_from_k(K, wide))


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_marker_membership_process(hzs, data):
    hz, wide = hzs
    removals = dict(entries(data, wide, wide.bits))

    def membership(h: Horizon) -> ApproxProcess:
        return MarkerSystem(h, dict(removals)).membership_process()

    assert_restricts(membership(hz), membership(wide))


@settings(deadline=None)
@given(horizon_pairs(), st.data())
def test_maxsep_superset(hzs, data):
    # One element per stage from stage 0 on, some entered after stage S.
    hz, wide = hzs
    elements = data.draw(st.lists(st.integers(0, hz.bits - 1),
                                  max_size=wide.stages + 2))
    A = Schedule.from_pairs((x, t) for t, x in enumerate(elements))
    assert_restricts(maxsep_superset(A, hz), maxsep_superset(A, wide))


@settings(deadline=None)
@given(horizon_pairs(), st.data())
def test_split_subset(hzs, data):
    # Any odd members below N at each of the S' stages.
    hz, wide = hzs
    odds = range(1, hz.bits, 2)
    members = st.sets(st.sampled_from(odds)) if odds else st.just(set())
    stages = data.draw(st.lists(members, min_size=wide.stages,
                                max_size=wide.stages))

    def process(h: Horizon) -> ApproxProcess:
        values = [Prefix.from_set(m, h.bits).value for m in stages]
        return ApproxProcess(values.__getitem__, h)

    assert_restricts(split_subset(process(hz)), split_subset(process(wide)))


@settings(deadline=None)
@given(horizon_pairs(), st.data())
def test_split_superset(hzs, data):
    # Any odd non-members below N at each of the S' stages; every other
    # position, those in [N, N') too, is a member.
    hz, wide = hzs
    odds = range(1, hz.bits, 2)
    non_members = st.sets(st.sampled_from(odds)) if odds else st.just(set())
    stages = data.draw(st.lists(non_members, min_size=wide.stages,
                                max_size=wide.stages))

    def process(h: Horizon) -> ApproxProcess:
        full = (1 << h.bits) - 1
        values = [full & ~Prefix.from_set(m, h.bits).value for m in stages]
        return ApproxProcess(values.__getitem__, h)

    assert_restricts(split_superset(process(hz)), split_superset(process(wide)))


@st.composite
def zulu_inputs(draw):
    """A layout cap, a driving history over bits 1 .. 2^n_cap - 1 and an
    enumeration of interval indices, entered at stages up to 16."""
    n_cap = draw(st.sampled_from([2, 3]))
    stage = st.integers(0, 16)
    omega = draw(st.lists(st.tuples(st.integers(1, 2 ** n_cap - 1), stage),
                          max_size=6))
    W = draw(st.lists(st.tuples(st.integers(1, n_cap), stage), max_size=3))
    return (ZuluState(Schedule.from_pairs(omega), BlockLayout(n_cap)),
            Schedule.from_pairs(W))


# I_1 and I_2 end at 16 and 273: horizons up to 300 bits cut through both.
@settings(deadline=None, max_examples=100)
@given(horizon_pairs(bits=300), zulu_inputs(), st.booleans())
def test_zulu_and_tilde(hzs, inputs, subset_form):
    hz, wide = hzs
    state, W = inputs
    past = Horizon(hz.stages, wide.bits)
    for build in (build_minimal, build_maximal):
        small = build(state, hz)
        assert_restricts(small, build(state, wide))
        assert_past_matches(small, build(state, past))

    def tilde(h: Horizon) -> ApproxProcess:
        return tilde_set(build_minimal(state, h), W, state.layout, subset_form)

    assert_restricts(tilde(hz), tilde(wide))
    assert_past_matches(tilde(hz), tilde(past))


def wider_runs(build, hz: Horizon, wide: Horizon):
    """`build` at S x N' and, unless it raises CapacityError, at S' x N'.

    Each stage below S reads the same bits below N at S x N' as at S x N,
    and more past them, so the S x N' run builds whenever the small run
    does.  Stages below S are the same at S' x N' too, so a CapacityError
    there comes from what the small run does not have: a stage S or later,
    or an index that only the longer run's selfref plan covers.
    """
    yield build(Horizon(hz.stages, wide.bits))
    try:
        yield build(wide)
    except CapacityError:
        pass


def check_diagonal(hz: Horizon, wide: Horizon, catalog, Ws) -> None:
    def diagonal(h: Horizon) -> ApproxProcess:
        return build_diagonal(schedule_numbering(catalog, h), Ws)[0]

    try:
        small = diagonal(hz)
    except CapacityError:
        return
    for big in wider_runs(diagonal, hz, wide):
        assert_restricts(small, big)
    assert_past_matches(small, diagonal(Horizon(hz.stages, wide.bits)))


@settings(deadline=None, max_examples=100)
@given(horizon_pairs(bits=250), st.data())
def test_diagonal(hzs, data):
    # Each catalog index fills its first k < min(N, 6) positions at up to
    # two stages, so each F(e) is at most 8 and d(e) stays below D_CAP; the
    # schedules hold points 2^e 3^d and their triples, which fire the bump.
    hz, wide = hzs
    fills = st.tuples(st.integers(0, min(hz.bits, 6) - 1), st.integers(0, 8))
    catalog = [[(x, t) for k, t in data.draw(st.lists(fills, max_size=2))
                for x in range(k)] for _ in range(4)]
    Ws = [Schedule.from_pairs(data.draw(st.lists(st.tuples(
        st.sampled_from([(1 << e) * 3 ** d for d in range(5)]),
        st.integers(0, 16)), max_size=3))) for e in range(4)]
    check_diagonal(hz, wide, catalog, Ws)


def test_diagonal_zeros_run_out_past_the_small_run():
    # Index 3 fills position 0 at stage 1: at 2 x 4 it has three zeros, too
    # few for F(3), at a stage the 1 x 4 run does not have.
    with pytest.raises(CapacityError, match="at stage 1"):
        build_diagonal(schedule_numbering([[], [], [], [(0, 1)]],
                                          Horizon(2, 4)), [EMPTY] * 4)
    check_diagonal(Horizon(1, 4), Horizon(2, 4), [[], [], [], [(0, 1)]],
                   [EMPTY] * 4)


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_max_join_gadget(hzs, data):
    # B's members lie below N; W enumerates any position below N'.
    hz, wide = hzs
    B = Schedule.from_pairs(entries(data, wide, hz.bits))
    W = Schedule.from_pairs(entries(data, wide, wide.bits))
    assert_restricts(max_join_gadget(B.as_process(hz), W),
                     max_join_gadget(B.as_process(wide), W))


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_infinite_indexset_gadget(hzs, data):
    # The cutoff, W's running maximum, may lie past either bit horizon.
    hz, wide = hzs
    B = Schedule.from_pairs(entries(data, wide, hz.bits))
    W = Schedule.from_pairs(entries(data, wide, wide.bits + 2))
    assert_restricts(infinite_indexset_gadget(B.as_process(hz), W),
                     infinite_indexset_gadget(B.as_process(wide), W))


def check_excise(hz: Horizon, wide: Horizon, catalog, R: Schedule,
                 X: Schedule) -> None:
    def excised(h: Horizon) -> Numbering:
        return excise(schedule_numbering(catalog, h), R, X.as_process(h))

    try:
        small = excised(hz)
    except CapacityError:
        return
    for big in wider_runs(excised, hz, wide):
        for p, q in zip(small, big):
            assert_restricts(p, q)


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_excise(hzs, data):
    hz, wide = hzs
    catalog = [entries(data, wide, hz.bits) for _ in range(4)]
    R = Schedule.from_pairs(data.draw(st.lists(st.tuples(
        st.integers(0, 3), st.integers(0, wide.stages)), max_size=4)))
    X = Schedule.from_pairs(entries(data, wide, wide.bits))
    check_excise(hz, wide, catalog, R, X)


def test_excise_all_ones_past_the_small_run():
    # Index 0 is all ones and is excised at stage 1, which the 1 x 1 run
    # does not have: only the 2 x 1 run finds no string lex-above it.
    catalog, R = [[(0, 0)], [], [], []], Schedule.from_pairs([(0, 1)])
    with pytest.raises(CapacityError, match="all-ones"):
        excise(schedule_numbering(catalog, Horizon(2, 1)), R,
               EMPTY.as_process(Horizon(2, 1)))
    check_excise(Horizon(1, 1), Horizon(2, 1), catalog, R, EMPTY)


def check_make_into_itself(hz: Horizon, wide: Horizon, catalog,
                           driving: Schedule, X: Schedule,
                           removals: dict[int, int]) -> None:
    def plan(h: Horizon) -> SelfRefPlan:
        return build_selfref_plan(
            schedule_numbering(catalog, h), driving.as_process(h),
            MarkerSystem(h, dict(removals)), X.as_process(h), lambda p: True)

    try:
        small = make_into_itself(plan(hz))
    except CapacityError:
        return
    for big in wider_runs(lambda h: make_into_itself(plan(h)), hz, wide):
        for p, q in zip(small, big):
            assert_restricts(p, q)


@settings(deadline=None, max_examples=50)
@given(horizon_pairs(), st.data())
def test_make_into_itself(hzs, data):
    # A marker count h(e) is at most e, and the plan covers indices below
    # min(8, S - 1, N), so an 8-process base catalog serves every h(e).
    hz, wide = hzs
    catalog = [entries(data, wide, hz.bits) for _ in range(8)]
    driving = Schedule.from_pairs(entries(data, wide, hz.bits))
    X = Schedule.from_pairs(entries(data, wide, wide.bits))
    removals = dict(data.draw(st.lists(st.tuples(
        st.integers(0, 7), st.integers(1, wide.stages)), max_size=6)))
    check_make_into_itself(hz, wide, catalog, driving, X, removals)


def test_make_into_itself_covers_only_indices_below_the_bit_horizon():
    # At 3 x 1 the plan covers index 0 only: index 1, removed at stage 1,
    # has no bit in the driving set.
    check_make_into_itself(Horizon(1, 1), Horizon(3, 1), [[]] * 8, EMPTY,
                           EMPTY, {1: 1})

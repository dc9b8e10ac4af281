"""Packed kernels against the per-bit loops they replaced.

The reference implementations below walk every bit of every stage, as the
constructions did before `rank_parity` and before they packed their stage
values through `Schedule.as_process`; the fast versions must give the same
stage values and the same `InputError`s.  Every construction that keeps a
`bit_fn` for positions past the horizon is also checked against its own
packed stage values below it.
"""
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from leftre.zulu import _zulu_state
from leftre.core import (ApproxProcess, Horizon, InputError, Prefix, Schedule)
from leftre.diagonal import build_diagonal
from leftre.fixtures import (diagonal_catalog, diagonal_schedules, k_fixtures,
                             marker_fixture, omega_fixture,
                             one_per_stage_schedule)
from leftre.markers import MarkerSystem
from leftre.relations import b_from_k
from leftre.zulu import (BlockLayout, ZuluState, build_maximal, build_minimal,
                         maxsep_superset, rank_parity, split_subset,
                         split_superset, tilde_set)


# -- reference implementations (per-bit loops) ------------------------------

def maxsep_superset_reference(A: Schedule, horizon: Horizon) -> ApproxProcess:
    by_stage: dict[int, list[int]] = {}
    for x, t in A.entries:
        by_stage.setdefault(t, []).append(x)
    if by_stage:
        for t in range(max(by_stage) + 1):
            if len(by_stage.get(t, ())) != 1:
                raise InputError(f"stage {t} needs exactly one element")
    N = horizon.bits
    values = []
    for s in range(horizon.stages):
        members = A.members_at(s)
        value = 0
        comp_rank = 0
        for x in range(N):
            if x in members:
                value |= 1 << (N - 1 - x)
            else:
                if comp_rank % 2 == 1:
                    value |= 1 << (N - 1 - x)
                comp_rank += 1
        values.append(value)
    return ApproxProcess(lambda s: values[s], horizon, "ref")


def stage_members_reference(p: ApproxProcess, s: int) -> list[int]:
    value = p.prefix(s).value
    N = p.horizon.bits
    return [n for n in range(N) if (value >> (N - 1 - n)) & 1]


def split_subset_reference(A: ApproxProcess) -> list[int]:
    N = A.horizon.bits
    values = []
    for s in range(A.horizon.stages):
        members = stage_members_reference(A, s)
        if any(m % 2 == 0 for m in members):
            raise InputError("splitting requires all members odd at every stage")
        value = 0
        for k, m in enumerate(members):
            value |= 1 << (N - 1 - (m if k % 2 == 0 else m - 1))
        values.append(value)
    return values


def split_superset_reference(B: ApproxProcess) -> list[int]:
    N = B.horizon.bits
    full = (1 << N) - 1
    values = []
    for s in range(B.horizon.stages):
        value = B.prefix(s).value
        non_members = [n for n in range(N) if not (value >> (N - 1 - n)) & 1]
        if any(m % 2 == 0 for m in non_members):
            raise InputError("dual splitting requires all non-members odd")
        removed = 0
        for k, m in enumerate(non_members):
            removed |= 1 << (N - 1 - (m if k % 2 == 0 else m - 1))
        values.append(full & ~removed)
    return values


def prefix_members_reference(p: Prefix) -> frozenset[int]:
    return frozenset(n for n in range(p.length) if p.bit(n))


def stage_values_of(P: ApproxProcess) -> list[int]:
    return [P.prefix(s).value for s in range(P.horizon.stages)]


def schedule_values_reference(W: Schedule, horizon: Horizon) -> list[int]:
    return [Prefix.from_set(W.members_at(s), horizon.bits).value
            for s in range(horizon.stages)]


def b_from_k_reference(K: Schedule, horizon: Horizon) -> list[int]:
    N = horizon.bits
    odds = 0
    for n in range(N):
        if n % 2 == 1:
            odds |= 1 << (N - 1 - n)
    values = []
    for s in range(horizon.stages):
        v = odds
        for x in K.members_at(s):
            if 2 * x < N:
                v |= 1 << (N - 1 - 2 * x)
            if 2 * x + 1 < N:
                v &= ~(1 << (N - 1 - (2 * x + 1)))
        values.append(v)
    return values


def membership_values_reference(m: MarkerSystem) -> list[int]:
    hz = m.horizon
    full = (1 << hz.bits) - 1
    removed_masks: list[int] = []
    mask = 0
    by_stage: dict[int, list[int]] = {}
    for p, t in m.removal_stage.items():
        if p < hz.bits:
            by_stage.setdefault(t, []).append(p)
    for s in range(hz.stages):
        for p in by_stage.get(s, ()):
            mask |= 1 << (hz.bits - 1 - p)
        removed_masks.append(full & ~mask)
    return removed_masks


# -- strategies ---------------------------------------------------------------

horizons = st.builds(Horizon, st.integers(1, 64), st.integers(1, 128))


@st.composite
def one_per_stage(draw, horizon):
    """Elements entered one per stage from stage 0, some past the bit horizon,
    some repeated, and some entered after the last stage."""
    elements = draw(st.lists(st.integers(0, horizon.bits + 10),
                             max_size=horizon.stages + 3))
    return Schedule.from_pairs([(x, t) for t, x in enumerate(elements)])


@st.composite
def schedule_entries(draw, horizon, top):
    """(element, stage) pairs in any stage order, with repeated elements,
    elements up to `top` and stages past the last one."""
    return draw(st.lists(st.tuples(st.integers(0, top),
                                   st.integers(0, horizon.stages + 5)),
                         max_size=2 * horizon.stages))


def odd_positions(N: int) -> int:
    return Prefix.from_set(range(1, N, 2), N).value


@st.composite
def stage_values(draw, horizon, mask):
    """One packed value per stage, restricted to `mask`."""
    top = (1 << horizon.bits) - 1
    return [draw(st.integers(0, top)) & mask for _ in range(horizon.stages)]


def assert_bit_fn_matches_stage_values(P: ApproxProcess) -> None:
    """A process reads its `bit_fn` only past the bit horizon; below it the
    same function must agree with the packed stage values."""
    positions = range(P.horizon.bits)
    for s in range(P.horizon.stages):
        got = tuple(P.bit_fn(s, n) for n in positions)
        assert got == tuple(P.prefix(s).bit(n) for n in positions), (P.label, s)


def check_maxsep(hz: Horizon, A: Schedule) -> None:
    """Same stage values as the per-bit loop."""
    fast = maxsep_superset(A, hz)
    slow = maxsep_superset_reference(A, hz)
    for s in range(hz.stages):
        assert fast.prefix(s) == slow.prefix(s), s


# -- tests ----------------------------------------------------------------------

EDGE_HORIZONS = [Horizon(1, 1), Horizon(4, 1), Horizon(5, 7), Horizon(9, 33),
                 Horizon(64, 128)]


class TestRankParity:
    @given(st.integers(1, 200), st.data())
    def test_prefix_parity_per_position(self, length, data):
        value = data.draw(st.integers(0, (1 << length) - 1))
        got = rank_parity(value, length)
        ones = 0
        for x in range(length):
            ones += (value >> (length - 1 - x)) & 1
            assert (got >> (length - 1 - x)) & 1 == ones % 2, x
        assert got < (1 << length)


class TestMaxsep:
    @settings(deadline=None, max_examples=60)
    @given(horizons, st.data())
    def test_matches_reference(self, hz, data):
        check_maxsep(hz, data.draw(one_per_stage(hz)))

    @pytest.mark.parametrize("hz", EDGE_HORIZONS)
    def test_edge_horizons(self, hz):
        check_maxsep(hz, Schedule.from_pairs([]))
        check_maxsep(hz, one_per_stage_schedule(hz.bits, hz))

    @settings(deadline=None, max_examples=30)
    @given(horizons, st.data())
    def test_bad_schedules_raise(self, hz, data):
        A = data.draw(one_per_stage(hz))
        n = len(A.entries)
        # A second element at a used stage, or a gap before the new one.
        extra = data.draw(st.integers(0, n + 2).filter(lambda t: t != n))
        bad = Schedule.from_pairs(A.entries + ((0, extra),))
        for build in (maxsep_superset, maxsep_superset_reference):
            with pytest.raises(InputError):
                build(bad, hz)


def check_split(hz: Horizon, odd_values: list[int]) -> None:
    """Split odd-member stage values, and split the dual process whose
    non-members are those values."""
    N = hz.bits
    A = ApproxProcess(lambda s: odd_values[s], hz)
    E = split_subset(A)
    assert stage_values_of(E) == split_subset_reference(A)
    full = (1 << N) - 1
    B = ApproxProcess(lambda s: full & ~odd_values[s], hz)
    F = split_superset(B)
    assert stage_values_of(F) == split_superset_reference(B)


class TestSplit:
    @settings(deadline=None, max_examples=60)
    @given(horizons, st.data())
    def test_matches_reference(self, hz, data):
        check_split(hz, data.draw(stage_values(hz, odd_positions(hz.bits))))

    @pytest.mark.parametrize("hz", EDGE_HORIZONS)
    def test_edge_horizons(self, hz):
        rng = Random(hz.bits)
        odds = odd_positions(hz.bits)
        check_split(hz, [0] * hz.stages)
        check_split(hz, [odds] * hz.stages)
        check_split(hz, [rng.getrandbits(hz.bits) & odds
                         for _ in range(hz.stages)])

    @settings(deadline=None, max_examples=30)
    @given(horizons, st.data())
    def test_even_position_raises(self, hz, data):
        N = hz.bits
        odds = odd_positions(N)
        values = data.draw(stage_values(hz, odds))
        s = data.draw(st.integers(0, hz.stages - 1))
        bit = 1 << (N - 1 - 2 * data.draw(st.integers(0, (N - 1) // 2)))
        members = list(values)
        members[s] |= bit  # an even member at stage s
        non_members = [((1 << N) - 1) & ~v for v in values]
        non_members[s] &= ~bit  # an even non-member at stage s
        A = ApproxProcess(lambda s: members[s], hz)
        B = ApproxProcess(lambda s: non_members[s], hz)
        for build in (split_subset, split_subset_reference):
            with pytest.raises(InputError):
                build(A)
        for build in (split_superset, split_superset_reference):
            with pytest.raises(InputError):
                build(B)


class TestPrefixMembers:
    @given(st.integers(0, 200), st.data())
    def test_matches_reference(self, length, data):
        p = Prefix(length, data.draw(st.integers(0, (1 << length) - 1)))
        assert p.members() == prefix_members_reference(p)


class TestScheduleProcess:
    @settings(deadline=None, max_examples=60)
    @given(horizons, st.data())
    def test_stage_values_match_reference(self, hz, data):
        pairs = data.draw(schedule_entries(hz, hz.bits + 5))
        W = Schedule.from_pairs(pairs)
        P = W.as_process(hz)
        assert stage_values_of(P) == schedule_values_reference(W, hz)
        for s in range(0, hz.stages, 7):
            for x in range(hz.bits):
                assert P.bit(s, x) == W.bit(x, s)

    @pytest.mark.parametrize("hz", EDGE_HORIZONS)
    def test_empty_schedule(self, hz):
        P = Schedule.from_pairs([]).as_process(hz)
        assert stage_values_of(P) == [0] * hz.stages


class TestCodedK:
    @settings(deadline=None, max_examples=60)
    @given(horizons, st.data())
    def test_matches_reference(self, hz, data):
        # Pairs 2x, 2x+1 reach past the horizon, and one may straddle it.
        K = Schedule.from_pairs(
            data.draw(schedule_entries(hz, hz.bits // 2 + 3)))
        assert stage_values_of(b_from_k(K, hz)) == b_from_k_reference(K, hz)

    @pytest.mark.parametrize("hz", EDGE_HORIZONS)
    def test_edge_horizons(self, hz):
        for K in k_fixtures(hz):
            assert stage_values_of(b_from_k(K, hz)) == b_from_k_reference(K, hz)


class TestMarkerMembership:
    @settings(deadline=None, max_examples=60)
    @given(horizons, st.data())
    def test_matches_reference(self, hz, data):
        removals = data.draw(st.dictionaries(
            st.integers(0, hz.bits + 5), st.integers(0, hz.stages + 5),
            max_size=2 * hz.stages))
        m = MarkerSystem(hz, removals)
        assert stage_values_of(m.membership_process()) == \
            membership_values_reference(m)

    @pytest.mark.parametrize("hz", [Horizon(2, 1), Horizon(9, 33),
                                    Horizon(64, 128)])
    def test_marker_fixture(self, hz):
        m = marker_fixture(hz)
        assert stage_values_of(m.membership_process()) == \
            membership_values_reference(m)


class TestBitFnBelowHorizon:
    """Each construction that answers past the bit horizon, checked against
    its own stage values at every position below it."""

    HZ = Horizon(64, 128)

    @pytest.mark.parametrize("seed", [13, 29])
    def test_zulu_minimal_maximal(self, seed):
        state = _zulu_state(self.HZ, seed, {"n_cap": 3})
        assert_bit_fn_matches_stage_values(build_minimal(state, self.HZ))
        assert_bit_fn_matches_stage_values(build_maximal(state, self.HZ))

    @pytest.mark.parametrize("subset_form", [False, True])
    def test_tilde(self, subset_form):
        layout = BlockLayout(3)
        A = build_minimal(ZuluState(omega_fixture(3, self.HZ, top_bit=7),
                                    layout), self.HZ)
        W = Schedule.from_pairs([(1, 2), (3, 5)])
        assert_bit_fn_matches_stage_values(tilde_set(A, W, layout, subset_form))

    def test_diagonal(self):
        nu = diagonal_catalog(self.HZ)
        empty = [Schedule.from_pairs([])] * 4
        _, settled = build_diagonal(nu, empty)
        Ws = diagonal_schedules(settled.points[-1][3], self.HZ,
                                fire_for=(0, 2))
        B, state = build_diagonal(nu, Ws)
        assert state.trigger_stages
        assert_bit_fn_matches_stage_values(B)

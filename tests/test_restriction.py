"""Horizon restriction: a run at S x N is the S x N window of the same
construction at any larger horizon S' x N'.

The paper's sets are infinite, so a finite run is faithful only if a larger
horizon does not change what it already showed.  Each construction is built
from fixed inputs that fit both horizons (every member below N), and for
every stage s < S its stage-s value at S x N must equal the first N bits of
its stage-s value at S' x N'.
"""
from hypothesis import given, settings, strategies as st

from leftre.core import ApproxProcess, Horizon, Prefix, Schedule
from leftre.zulu import maxsep_superset, split_subset


@st.composite
def horizon_pairs(draw):
    """S x N and S' x N' with S <= S' and N <= N'."""
    S, N = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    return (Horizon(S, N), Horizon(S + draw(st.integers(0, 8)),
                                   N + draw(st.integers(0, 24))))


def assert_restricts(small: ApproxProcess, big: ApproxProcess) -> None:
    N = small.horizon.bits
    for s in range(small.horizon.stages):
        assert small.prefix(s) == big.prefix(s).truncated(N), s


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

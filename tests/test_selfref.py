import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (ApproxProcess, CapacityError, Horizon, InputError,
                         Numbering, Prefix, Schedule, index_set_estimate,
                         limit_estimate, validate_left_re)
from leftre.fixtures import (bambam_infinite_process, late_boundary_process,
                             random_catalog, selfref_fixture)
from leftre.markers import MarkerSystem
from leftre.selfref import (_while_shown, build_selfref_plan, excise,
                            has_one_at_or_beyond, infinite_indexset_gadget,
                            limit_equals, make_into_itself, sigma_above,
                            singleton_numbering_finite,
                            singleton_numbering_infinite, singleton_witness)

HZ = Horizon(64, 128)


def last_shown_reference(A, e):
    """For each stage s, the last stage <= s at which A shows e, or 0,
    found by reading A at every stage."""
    stages, last = [], 0
    for s in range(A.horizon.stages):
        if A.bit(s, e):
            last = s
        stages.append(last)
    return stages


class TestWhileShown:
    """_while_shown reads A and P only at their change stages; every stage
    must still show P at the stage a per-stage scan of A finds."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 24), st.integers(1, 6), st.booleans(), st.data())
    def test_matches_per_stage_scan(self, S, N, same, data):
        # A is any table of values, not lex-monotone; P is A itself or
        # another such table.
        hz = Horizon(S, N)
        values = st.lists(st.integers(0, (1 << N) - 1), min_size=S,
                          max_size=S)
        A = ApproxProcess(data.draw(values).__getitem__, hz, "A")
        P = A if same else ApproxProcess(data.draw(values).__getitem__, hz)
        for e in range(N):
            last = last_shown_reference(A, e)
            got = _while_shown(P, A, e, "t")
            assert [got.value(s) for s in range(S)] == \
                [P.value(last[s]) for s in range(S)], e


class TestSigma:
    def test_flips_first_zero(self):
        assert sigma_above(Prefix.from_string("1101")).to_string() == "111"
        assert sigma_above(Prefix.from_string("0101")).to_string() == "1"

    def test_strictly_above_padded(self):
        for s in ("0000", "0110", "1010", "1110"):
            p = Prefix.from_string(s)
            sig = sigma_above(p).padded(p.length)
            assert sig.value > p.value

    def test_all_ones_has_no_sigma(self):
        with pytest.raises(CapacityError):
            sigma_above(Prefix.from_string("1111"))


class TestMakeIntoItself:
    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_index_set_matches_driver_off_markers(self, seed):
        plan = selfref_fixture(seed, HZ)
        beta = make_into_itself(plan)
        est = index_set_estimate(beta, plan.classC)
        a_set = plan.A.final_prefix().members() & frozenset(range(plan.indices))
        removed = frozenset(e for e in range(plan.indices)
                            if plan.I.removed(e, HZ.stages - 1))
        surviving = frozenset(range(plan.indices)) - removed
        assert (est ^ a_set) <= surviving
        for e in removed:
            assert (e in est) == (e in a_set)

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_all_processes_valid(self, seed):
        beta = make_into_itself(selfref_fixture(seed, HZ))
        assert all(r.ok for r in beta.validate())

    def test_surviving_indices_follow_base(self):
        plan = selfref_fixture(1, HZ)
        beta = make_into_itself(plan)
        for e in range(plan.indices):
            if not plan.I.removed(e, HZ.stages - 1):
                for s in range(0, HZ.stages, 7):
                    assert beta.at(e).prefix(s) == \
                        plan.base.at(plan.h(e)).prefix(s)

    def test_removed_index_in_driver_gets_full_boundary(self):
        plan = selfref_fixture(1, HZ)
        beta = make_into_itself(plan)
        x_final, _ = limit_estimate(plan.X)
        for e in range(plan.indices):
            if plan.I.removed(e, HZ.stages - 1) \
                    and plan.A.bit(HZ.stages - 1, e) == 1:
                sig = plan.sigma[e]
                got, _ = limit_estimate(beta.at(e))
                tail = x_final.value >> sig.length
                assert got == Prefix(HZ.bits, sig.padded(HZ.bits).value | tail)

    def test_plan_covers_only_indices_below_the_bit_horizon(self):
        # Index 1 is removed at stage 1 of a 3 x 1 horizon, where the
        # driving set has no bit for it.
        hz = Horizon(3, 1)
        empty = Schedule.from_pairs([]).as_process(hz)
        plan = build_selfref_plan(Numbering([empty] * 8), empty,
                                  MarkerSystem(hz, {1: 1}), empty,
                                  lambda p: True)
        assert plan.indices == 1
        beta = make_into_itself(plan)
        assert beta.index_range == 1 and beta.at(0) is empty


class TestSingletonFinite:
    def test_small_example(self):
        base = random_catalog(3, 4, HZ, "b")
        gamma = singleton_numbering_finite(frozenset({1, 3}), base)
        target = Prefix.from_set({1, 3}, HZ.bits)
        est = index_set_estimate(gamma, limit_equals(target))
        assert est == {1, 3}
        assert gamma.at(0).final_prefix().value == 0
        assert gamma.at(4).final_prefix() == base.at(0).final_prefix()

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            singleton_numbering_finite(frozenset(), random_catalog(3, 2, HZ))

    def test_base_containing_target_rejected(self):
        base = random_catalog(3, 2, HZ)
        target = base.at(0).final_prefix().members()
        with pytest.raises(InputError):
            singleton_numbering_finite(frozenset(target), base)


class TestSingletonInfinite:
    def test_index_set_exact(self):
        A = bambam_infinite_process(Horizon(48, 128))
        base = random_catalog(2, 5, Horizon(48, 128), "bb")
        R = list(range(1, 11, 2))
        gamma = singleton_numbering_infinite(A, R, base)
        target, _ = limit_estimate(A)
        est = index_set_estimate(gamma, limit_equals(target))
        members = A.final_prefix().members()
        assert est == frozenset(e for e in range(gamma.index_range)
                                if e in members)
        assert all(r.ok for r in gamma.validate())

    def test_sequence_indices_carry_base(self):
        hz = Horizon(48, 128)
        A = bambam_infinite_process(hz)
        base = random_catalog(2, 3, hz, "bb")
        gamma = singleton_numbering_infinite(A, [1, 3, 5], base)
        for d, b in enumerate([1, 3, 5]):
            assert gamma.at(b).final_prefix() == base.at(d).final_prefix()

    def test_static_approximation_rejected(self):
        hz = Horizon(48, 128)
        static = Schedule.from_pairs([(0, 1)]).as_process(hz)
        with pytest.raises(InputError):
            singleton_numbering_infinite(static, [1], random_catalog(2, 1, hz))

    @pytest.mark.parametrize("values,ok", [
        ([1], True),  # one stage has no earlier stage
        ([0, 1, 2], True),
        ([0, 2, 2], False),  # the limit is shown from stage 1 on
        ([2, 0, 1, 2], False),  # the limit is shown at stage 0 too
    ])
    def test_differs_from_its_limit_at_every_earlier_stage(self, values,
                                                             ok):
        hz = Horizon(len(values), 4)
        A = ApproxProcess(values.__getitem__, hz)
        base = Numbering([Schedule.from_pairs([]).as_process(hz)])
        if ok:
            singleton_numbering_infinite(A, [0], base)
        else:
            with pytest.raises(InputError, match="every earlier stage"):
                singleton_numbering_infinite(A, [0], base)

    def test_sequence_meeting_set_rejected(self):
        hz = Horizon(48, 128)
        A = bambam_infinite_process(hz)
        with pytest.raises(InputError):
            singleton_numbering_infinite(A, [0], random_catalog(2, 1, hz))


class TestWitness:
    def test_threshold_splits_catalog(self):
        hz = Horizon(32, 16)
        lo = Schedule.from_pairs([(3, 1)]).as_process(hz)
        hi = Schedule.from_pairs([(0, 4)]).as_process(hz)
        A = Schedule.from_pairs([(5, 0)]).as_process(hz)
        nu = Numbering([lo, hi])
        B = singleton_witness(nu, A, Prefix.from_string("01"))
        assert B.final_members() == {1}
        assert B.entry_stage(1) == 4

    def test_named_set_never_enters(self):
        hz = Horizon(32, 16)
        A = Schedule.from_pairs([(5, 0)]).as_process(hz)
        nu = Numbering([A])
        B = singleton_witness(nu, A, Prefix.from_string("01"))
        assert B.final_members() == frozenset()

    def test_monotone_under_catalog_growth(self):
        hz = Horizon(32, 32)
        A = Schedule.from_pairs([(20, 0)]).as_process(hz)
        procs = [Schedule.from_pairs([(x, x)]).as_process(hz)
                 for x in range(1, 8)]
        r = Prefix.from_string("001")
        prev: frozenset = frozenset()
        for size in range(1, len(procs) + 1):
            B = singleton_witness(Numbering(procs[:size]), A, r)
            members = B.final_members()
            assert prev <= members
            prev = members

    def test_bad_threshold_rejected(self):
        hz = Horizon(32, 16)
        A = Schedule.from_pairs([(0, 0)]).as_process(hz)
        with pytest.raises(InputError):
            singleton_witness(Numbering([A]), A, Prefix.from_string("01"))


class TestGadget:
    def test_empty_cutoff_is_empty(self):
        B = random_catalog(7, 1, HZ).at(0)
        g = infinite_indexset_gadget(B, Schedule.from_pairs([]))
        assert g.final_prefix().value == 0

    def test_growing_cutoff_recovers_limit(self):
        B = random_catalog(7, 1, HZ).at(0)
        W = Schedule.from_pairs([(x, x) for x in range(HZ.bits + 1)])
        g = infinite_indexset_gadget(B, W)
        assert validate_left_re(g).ok
        assert g.final_prefix() == B.final_prefix()

    def test_finite_cutoff_truncates(self):
        B = random_catalog(7, 1, HZ).at(0)
        g = infinite_indexset_gadget(B, Schedule.from_pairs([(10, 0)]))
        final = g.final_prefix().members()
        assert final == {m for m in B.final_prefix().members() if m < 10}


class TestExcise:
    def test_empty_removal_is_identity(self):
        alpha = random_catalog(4, 3, HZ)
        beta = excise(alpha, Schedule.from_pairs([]),
                      late_boundary_process(HZ, 20))
        for e in range(3):
            assert beta.at(e).final_prefix() == alpha.at(e).final_prefix()

    def test_excised_index_switches(self):
        alpha = random_catalog(4, 3, HZ)
        X = late_boundary_process(HZ, 20)
        beta = excise(alpha, Schedule.from_pairs([(1, 4)]), X)
        assert all(r.ok for r in beta.validate())
        got, _ = limit_estimate(beta.at(1))
        assert got != alpha.at(1).final_prefix()
        assert got.bit(0) == 1  # the switch string flips the leading zero

    def test_range_avoids_excised_limits(self):
        alpha = random_catalog(4, 4, HZ)
        X = late_boundary_process(HZ, 20)
        R = Schedule.from_pairs([(0, 2), (2, 6)])
        beta = excise(alpha, R, X)
        excised = {alpha.at(e).final_prefix().value for e in (0, 2)}
        kept = {beta.at(e).final_prefix().value for e in range(4)}
        assert not (excised & kept)


class TestPredicates:
    def test_checkpoint_predicate(self):
        hz = Horizon(8, 32)
        early = Schedule.from_pairs([(3, 0)]).as_process(hz)
        late = Schedule.from_pairs([(20, 0)]).as_process(hz)
        pred = has_one_at_or_beyond(10)
        assert not pred(early)
        assert pred(late)

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from leftre.core import (GREATER, ApproxProcess, CapacityError, Horizon,
                         InputError, InternalInvariantError, Numbering,
                         Schedule, UsageError, finite_set_process, lex_cmp,
                         validate_left_re)
from leftre.fixtures import k_fixtures, random_catalog
from leftre.relations import (RelationOracle, b_from_k, check_persistence,
                              decide_k_below, first_mismatch,
                              gazebo_lex_emissions, gazebo_run,
                              inc_oracle_bruteforce, lex_oracle_bruteforce,
                              pair_code)

HZ = Horizon(48, 96)
AUDIT_HZ = Horizon(64, 128)


def check_persistence_bruteforce(oracle, alpha):
    """Slow oracle for check_persistence: every entry, every stage from its
    emission on, compared through prefixes and lex_cmp.  Each stage prefix
    is read once, as `prefix(s)` builds a `Prefix` on every call."""
    S = alpha.horizon.stages
    rows = [[p.prefix(s) for s in range(S)] for p in alpha]
    for (i, j), t in oracle.entries:
        for s in range(t, S):
            if lex_cmp(rows[i][s], rows[j][s]) == GREATER:
                return ((i, j), s)
    return None


def lex_oracle_reference(nu):
    """Slow oracle for lex_oracle_bruteforce: lex_cmp on every pair of
    finals, each pair at its pair code, in row-major order."""
    finals = [nu.at(e).final_prefix() for e in range(nu.index_range)]
    return [((i, j), pair_code(i, j)) for i, a in enumerate(finals)
            for j, b in enumerate(finals) if lex_cmp(a, b) != GREATER]


def constant_numbering(sets, hz=HZ):
    return Numbering([finite_set_process(m, hz, str(i))
                      for i, m in enumerate(sets)])


class TestIncOracle:
    def test_reflexive_and_empty_below_all(self):
        nu = constant_numbering([set(), {1, 2}, {2}])
        oracle = inc_oracle_bruteforce(nu)
        assert all(oracle.has(i, i) for i in range(3))
        assert all(oracle.has(0, j) for j in range(3))
        assert oracle.has(2, 1) and not oracle.has(1, 2)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10 ** 6))
    def test_matches_double_loop_and_is_partial_order(self, seed):
        nu = random_catalog(seed, 5, HZ)
        oracle = inc_oracle_bruteforce(nu)
        finals = [nu.at(e).final_prefix().members() for e in range(5)]
        for i in range(5):
            for j in range(5):
                assert oracle.has(i, j) == (finals[i] <= finals[j])
        # Transitivity and antisymmetry on distinct estimates.
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    if oracle.has(i, j) and oracle.has(j, k):
                        assert oracle.has(i, k)
                if i != j and oracle.has(i, j) and oracle.has(j, i):
                    assert finals[i] == finals[j]

    def test_has_builds_no_pair_set(self, monkeypatch):
        nu = random_catalog(3, 5, HZ)
        oracle = inc_oracle_bruteforce(nu)
        twin = RelationOracle(oracle.rows, oracle.groups)
        pairs = oracle.pairs()
        built = []
        real_pairs = RelationOracle.pairs
        monkeypatch.setattr(RelationOracle, "pairs",
                            lambda self: built.append(1) or real_pairs(self))
        for i in range(-1, 7):
            for j in range(7):
                assert oracle.has(i, j) == ((i, j) in pairs)
        # has() reads one bit of a row: no pair set, and nothing cached.
        assert not built
        assert set(vars(oracle)) == {"rows", "groups"}
        assert twin == oracle and hash(twin) == hash(oracle)

    def test_unstable_estimate_refused(self):
        moving = ApproxProcess(lambda s: s, HZ)
        with pytest.raises(InputError):
            inc_oracle_bruteforce(Numbering([moving]))


class TestRelationOracle:
    def test_from_entries_groups_by_stage_and_left_side(self):
        oracle = RelationOracle.from_entries(
            [((2, 0), 4), ((0, 1), 3), ((2, 1), 4), ((0, 1), 3), ((0, 1), 1)])
        assert oracle.rows == (0b10, 0, 0b11)
        assert oracle.groups == ((1, 0, 0b10), (3, 0, 0b10), (4, 2, 0b11))
        assert oracle.entries == (((0, 1), 1), ((0, 1), 3), ((2, 0), 4),
                                  ((2, 1), 4))

    def test_first_mismatch_is_least_pair(self):
        a = RelationOracle((0b1, 0b1011, 0b1))
        assert first_mismatch(a, a) is None
        assert first_mismatch(a, RelationOracle((0b1, 0b0110, 0))) \
            == (1, 0)
        assert first_mismatch(a, RelationOracle((0b1, 0b0011, 0))) \
            == (1, 3)
        assert first_mismatch(a, RelationOracle((0b1, 0b1011))) \
            == (2, 0)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0)])
    def test_audit_refuses_pairs_past_the_numbering(self, pair):
        nu = constant_numbering([{1}, {0}], Horizon(4, 4))
        with pytest.raises(UsageError):
            check_persistence(RelationOracle.from_entries([(pair, 0)]),
                              nu)


class TestBFromK:
    def test_pair_flip_timing(self):
        K = Schedule.from_pairs([(0, 3)])
        B = b_from_k(K, HZ)
        for s in range(3):
            assert (B.bit(s, 0), B.bit(s, 1)) == (0, 1)
        for s in range(3, HZ.stages):
            assert (B.bit(s, 0), B.bit(s, 1)) == (1, 0)

    def test_empty_k_gives_odds(self):
        B = b_from_k(Schedule.from_pairs([]), HZ)
        assert B.final_prefix().members() == set(range(1, HZ.bits, 2))

    @pytest.mark.parametrize("i", range(5))
    def test_validator(self, i):
        assert validate_left_re(b_from_k(k_fixtures(HZ)[i], HZ)).ok


def decode_family(K, x, hz=HZ):
    odds = finite_set_process(range(1, hz.bits, 2), hz, "odds")
    B = b_from_k(K, hz)
    final_k = K.final_members()
    cands = [finite_set_process((2 * y + 1 for y in range(x1)
                                 if y not in final_k), hz, f"c{x1}")
             for x1 in range(x + 1)]
    return Numbering([odds, B] + cands)


def decide_k_below_reference(oracle, nu, x, K, a_index=0, b_index=1):
    """Slow oracle for decide_k_below: the emitted pairs and the K view are
    rebuilt from scratch at every stage."""
    if x == 0:
        return set()
    S = nu.horizon.stages
    limit = max(max((t for _, t in oracle.entries), default=0),
                max((t for _, t in K.entries), default=0), S - 1) + 1
    for s in range(limit):
        emitted = frozenset(p for p, t in oracle.entries if t <= s)
        k_view = K.members_at(s)
        for e in range(nu.index_range):
            if e in (a_index, b_index) or (e, a_index) not in emitted \
                    or (e, b_index) not in emitted:
                continue
            E = nu.at(e).prefix(min(s, S - 1)).members()
            if all((y in k_view) != (2 * y + 1 in E) for y in range(x)):
                return {y for y in range(x) if 2 * y + 1 not in E}
    return None


class TestDecoding:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10), st.data())
    def test_matches_reference_on_random_oracles(self, x, data):
        # The inclusion pairs of the final sets, and the schedule's entries,
        # at arbitrary stages up to past the horizon and in any order: both
        # searches stop at the same candidate, or both find none.
        K = Schedule.from_pairs(data.draw(st.lists(st.tuples(
            st.integers(0, x + 2), st.integers(0, 2 * HZ.stages)),
            max_size=x + 3)))
        nu = decode_family(K, x)
        finals = [p.final_prefix() for p in nu]
        pairs = [(i, j) for i, a in enumerate(finals)
                 for j, b in enumerate(finals) if a.is_subset_of(b)]
        stages = data.draw(st.lists(st.integers(0, 2 * HZ.stages),
                                    min_size=len(pairs), max_size=len(pairs)))
        oracle = RelationOracle.from_entries(
            data.draw(st.permutations(list(zip(pairs, stages)))))
        if data.draw(st.booleans()):  # no groups: the stages are pair codes
            oracle = RelationOracle(oracle.rows)
        expected = decide_k_below_reference(oracle, nu, x, K)
        if expected is not None and expected != \
                {y for y in K.final_members() if y < x}:
            expected = "audit"
        try:
            got = decide_k_below(oracle, nu, x, K)
        except CapacityError:
            got = None
        except InternalInvariantError:
            got = "audit"
        assert got == expected

    @pytest.mark.parametrize("i", range(5))
    @pytest.mark.parametrize("x", [0, 3, 16])
    def test_recovers_k_below(self, i, x):
        K = k_fixtures(HZ)[i]
        nu = decode_family(K, x)
        oracle = inc_oracle_bruteforce(nu)
        assert decide_k_below(oracle, nu, x, K) == \
            {y for y in K.final_members() if y < x}

    @pytest.mark.parametrize("i", range(5))
    @pytest.mark.parametrize("x", [1, 3, 16, 48])
    def test_pair_codes_match_explicit_groups(self, i, x):
        # Without groups, the first stage of a pair is its pair code: the same
        # oracle with one explicit group per pair decides the same way.
        K = k_fixtures(HZ)[i]
        nu = decode_family(K, x)
        oracle = inc_oracle_bruteforce(nu)
        grouped = RelationOracle.from_entries(oracle.entries)
        assert oracle.groups is None and grouped.groups is not None
        assert decide_k_below(oracle, nu, x, K) == \
            decide_k_below(grouped, nu, x, K)

    def test_worked_example(self):
        K = Schedule.from_pairs([(0, 3), (2, 5)])
        nu = decode_family(K, 3)
        got = decide_k_below(inc_oracle_bruteforce(nu), nu, 3, K)
        assert got == {0, 2}

    @pytest.mark.parametrize("late", ["k-entry", "candidate-move"])
    def test_decides_at_a_stage_without_emissions(self, late):
        # Every pair is out at stage 0, and the one candidate passes only at
        # a later stage where nothing is emitted: when K's entry 0 arrives
        # past the horizon, or when the candidate's own set changes.
        if late == "k-entry":
            K = Schedule.from_pairs([(0, HZ.stages + 5)])
            cand = finite_set_process((), HZ)
        else:
            K = Schedule.from_pairs([])
            cand = Schedule.from_pairs([(1, 5)]).as_process(HZ)
        odds = finite_set_process(range(1, HZ.bits, 2), HZ)
        nu = Numbering([odds, b_from_k(K, HZ), cand])
        oracle = RelationOracle.from_entries(
            [((2, 0), 0), ((2, 1), 0)])
        expected = decide_k_below_reference(oracle, nu, 1, K)
        assert expected == K.final_members()
        assert decide_k_below(oracle, nu, 1, K) == expected

    def test_waits_for_both_pairs(self):
        # Candidate 3 ({1}) passes while K is empty, but then only its pair
        # with the odds is out; when its pair with the coded set is out at
        # stage 4, K holds 0 and the empty candidate 2 passes instead.
        K = Schedule.from_pairs([(0, 3)])
        odds = finite_set_process(range(1, HZ.bits, 2), HZ)
        nu = Numbering([odds, b_from_k(K, HZ), finite_set_process((), HZ),
                        finite_set_process({1}, HZ)])
        oracle = RelationOracle.from_entries(
            [((2, 0), 4), ((2, 1), 4), ((3, 0), 0), ((3, 1), 4)])
        assert decide_k_below_reference(oracle, nu, 1, K) == {0}
        assert decide_k_below(oracle, nu, 1, K) == {0}

    @pytest.mark.parametrize("back_at", [None, 6], ids=["stays", "transient"])
    def test_decides_at_a_later_candidate_change(self, back_at):
        # Every pair is out at stage 0 and K is empty.  Candidate 2 never
        # passes; candidate 3 passes from its change at stage 5, for good or
        # only for that stage, where nothing is emitted and K is unchanged.
        K = Schedule.from_pairs([])
        passing = range(5, back_at or HZ.stages)
        # Position 1 is the bit of y = 0, shifted and doubled.
        bit_1 = 1 << (HZ.bits - 2)
        mover = ApproxProcess(lambda s: bit_1 if s in passing else 0, HZ)
        odds = finite_set_process(range(1, HZ.bits, 2), HZ)
        nu = Numbering([odds, b_from_k(K, HZ), finite_set_process((), HZ),
                        mover])
        oracle = RelationOracle.from_entries(
            [((e, r), 0) for e in (2, 3) for r in (0, 1)])
        assert decide_k_below_reference(oracle, nu, 1, K) == set()
        assert decide_k_below(oracle, nu, 1, K) == set()


class TestDecodingCapacity:
    @pytest.mark.parametrize("i", range(5))
    def test_matches_reference_up_to_half_the_bits(self, i):
        # Every x up to N / 2 on 16 bits, where y = x - 1 codes at the last
        # bit; 40 stages let every fixture's last entry settle.
        hz = Horizon(40, 16)
        K = k_fixtures(hz)[i]
        for x in range(hz.bits // 2 + 1):
            nu = decode_family(K, x, hz)
            oracle = inc_oracle_bruteforce(nu)
            assert decide_k_below(oracle, nu, x, K) == \
                decide_k_below_reference(oracle, nu, x, K), x

    def test_past_half_the_bits_raises(self):
        # y = 4 codes at position 9, past an 8-bit horizon, so no candidate
        # can show it; K holds 4, which an unguarded search would take as
        # "2y + 1 not in E" and decode.
        hz = Horizon(16, 8)
        K = Schedule.from_pairs([(4, 0)])
        nu = decode_family(K, 5, hz)
        with pytest.raises(CapacityError, match="needs 10 bits, got 8"):
            decide_k_below(inc_oracle_bruteforce(nu), nu, 5, K)


class TestGazebo:
    def test_sorted_static_catalog_never_obliterates(self):
        hz = Horizon(16, 16)
        sets = [{3}, {1}, {0, 3}]  # lex-increasing prefixes, static
        beta = constant_numbering(sets, hz)
        alpha, state = gazebo_run(beta)
        assert not state.obliterated
        assert len(state.established) == 3
        for e in range(3):
            assert alpha.at(e).final_prefix() == beta.at(e).final_prefix()

    def test_single_overtake_obliterates(self):
        hz = Horizon(16, 16)
        climber = Schedule.from_pairs([(0, 5)]).as_process(hz)
        static = Schedule.from_pairs([(1, 0)]).as_process(hz)
        beta = Numbering([climber, static])
        alpha, state = gazebo_run(beta)
        assert state.obliterated
        assert min(state.obliterated.values()) == 5

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_persistence_and_oracle_equality(self, seed):
        beta = random_catalog(seed, 5, HZ, "gz")
        alpha, state = gazebo_run(beta)
        oracle = gazebo_lex_emissions(state)
        assert check_persistence(oracle, alpha) is None
        assert oracle.pairs() == lex_oracle_bruteforce(alpha).pairs()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_obliterated_all_ones_from_stage(self, seed):
        beta = random_catalog(seed, 5, HZ, "gz")
        alpha, state = gazebo_run(beta)
        ones = (1 << HZ.bits) - 1
        for a, t in state.obliterated.items():
            for s in range(t, HZ.stages, 7):
                assert alpha.at(a).prefix(s).value == ones

    @pytest.mark.parametrize("seed", [0, 1])
    def test_alpha_validates(self, seed):
        beta = random_catalog(seed, 5, HZ, "gz")
        alpha, _ = gazebo_run(beta)
        assert all(r.ok for r in alpha.validate())

    def test_diagonal_pairs_emitted(self):
        beta = random_catalog(3, 4, HZ, "gz")
        alpha, state = gazebo_run(beta)
        emitted = gazebo_lex_emissions(state).pairs()
        for a in range(len(state.established)):
            assert (a, a) in emitted

    def test_all_ones_catalog_rejected(self):
        hz = Horizon(16, 8)
        ones = constant_numbering([set(range(8)), {0}], hz)
        with pytest.raises(InputError):
            gazebo_run(ones)

    def test_duplicate_catalog_rejected(self):
        hz = Horizon(16, 8)
        with pytest.raises(InputError):
            gazebo_run(constant_numbering([{1}, {1}], hz))


def audit_catalogs():
    rng = random.Random(2012)
    return [(c, size) for size in (5, 8) for c in rng.sample(range(10 ** 6), 10)]


def corrupted(oracle, alpha, rng):
    """Up to 2000 of the oracle's entries in random order, with a few pairs
    injected at random stages: pairs whose final comparison fails, and pairs
    drawn uniformly.  The sample keeps the stage-by-stage audit affordable."""
    finals = [alpha.at(e).final_prefix().value for e in range(alpha.index_range)]
    failing = [(i, j) for i, fi in enumerate(finals)
               for j, fj in enumerate(finals) if fi > fj]
    entries = rng.sample(oracle.entries, min(len(oracle.entries), 2000))
    for _ in range(rng.randrange(1, 6)):
        if failing and rng.random() < 0.5:
            pair = rng.choice(failing)
        else:
            pair = (rng.randrange(len(finals)), rng.randrange(len(finals)))
        entries.insert(rng.randrange(len(entries) + 1),
                       (pair, rng.randrange(alpha.horizon.stages)))
    return RelationOracle.from_entries(entries)


class TestPersistenceAudit:
    @pytest.mark.parametrize("catalog,size", audit_catalogs())
    def test_fast_audit_matches_bruteforce(self, catalog, size):
        alpha, state = gazebo_run(random_catalog(catalog, size, AUDIT_HZ, "gz"))
        oracle = gazebo_lex_emissions(state)
        assert check_persistence(oracle, alpha) is None
        assert check_persistence_bruteforce(oracle, alpha) is None
        rng = random.Random(catalog)
        for _ in range(4):
            bad = corrupted(oracle, alpha, rng)
            assert check_persistence(bad, alpha) == \
                check_persistence_bruteforce(bad, alpha)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10 ** 6), st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_grouped_oracles_match_slow_oracles(self, catalog, size, seed):
        # The sort-based lex oracle against lex_cmp on every pair, on a
        # catalog and on its followers; then the grouped audit against the
        # per-entry one on the emissions, corrupted emissions, and pair-coded
        # oracles whose comparisons break as the catalog moves.
        beta = random_catalog(catalog, size, HZ, "gz")
        alpha, state = gazebo_run(beta)
        for nu in (beta, alpha):
            reference = lex_oracle_reference(nu)
            oracle = lex_oracle_bruteforce(nu)
            assert oracle.pairs() == {p for p, _ in reference}
            assert list(oracle.entries) == sorted(reference, key=lambda e: e[1])
        emitted = gazebo_lex_emissions(state)
        assert list(emitted.entries) == state.emissions
        assert RelationOracle.from_entries(state.emissions) == emitted
        assert first_mismatch(emitted, lex_oracle_bruteforce(alpha)) is None
        assert check_persistence(emitted, alpha) is None
        rng = random.Random(seed)
        for oracle, nu in [(corrupted(emitted, alpha, rng), alpha),
                           (lex_oracle_bruteforce(beta), beta),
                           (inc_oracle_bruteforce(beta), beta)]:
            assert check_persistence(oracle, nu) == \
                check_persistence_bruteforce(oracle, nu)

    def test_witness_is_first_entry_then_first_stage(self):
        hz = Horizon(16, 16)
        climber = Schedule.from_pairs([(0, 5)]).as_process(hz)
        static = Schedule.from_pairs([(1, 0)]).as_process(hz)
        nu = Numbering([climber, static])
        oracle = RelationOracle.from_entries(
            (((1, 0), 9), ((0, 1), 2), ((0, 1), 0)))
        assert check_persistence(oracle, nu) == ((0, 1), 5)
        assert check_persistence_bruteforce(oracle, nu) == ((0, 1), 5)

    @pytest.mark.parametrize("back_at", [None, 6], ids=["stays", "transient"])
    def test_failure_at_a_later_index_change_without_emission(self, back_at):
        # The one pair is emitted at stage 0.  Index 0 never changes; index 1
        # drops below it at stage 5, for good or only for that stage.  Only
        # index 1's change stage 5 shows the failure.
        hz = Horizon(16, 4)
        low = range(5, back_at or hz.stages)
        nu = Numbering([ApproxProcess(lambda s: 2, hz),
                        ApproxProcess(lambda s: 1 if s in low else 3, hz)])
        oracle = RelationOracle.from_entries([((0, 1), 0)])
        assert check_persistence(oracle, nu) == ((0, 1), 5)
        assert check_persistence_bruteforce(oracle, nu) == ((0, 1), 5)


class TestMemory:
    def test_run_audit_and_reference_peak(self):
        # Follower run, persistence audit and reference oracle at catalog
        # size 12, 128x256 (294 followers, 82,986 emitted pairs): about
        # 1.26 MB of traced peak with one bitset per (stage, left side),
        # against 34.6 MB with one tuple per pair.
        beta = random_catalog(13, 12, Horizon(128, 256), "gazebo-beta")
        tracemalloc.start()
        try:
            alpha, state = gazebo_run(beta)
            oracle = gazebo_lex_emissions(state)
            assert check_persistence(oracle, alpha) is None
            assert first_mismatch(oracle, lex_oracle_bruteforce(alpha)) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000


def state_digest(state):
    blob = json.dumps({
        "emissions": state.emissions,
        "obliterated": sorted(state.obliterated.items()),
        "established": sorted(state.established.items()),
        "trace": state.trace,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of the full run state (emissions, obliterations, establishments and
# trace), recorded from the stage-by-stage implementation the incremental run
# replaced.  Keyed by (catalog seed, catalog size, stages, bits).
STATE_SHA256 = {
    (0, 5, 64, 128): "31834dda38ae532160c2fc44a825e2f9ef0af6aab800d678fcad77a69088d9d8",
    (1, 5, 64, 128): "5ed55f83bb21f1e57937c12312406bf10b823e06538e2f9c7cd24727173740d7",
    (2, 5, 64, 128): "1f490ea2816d6d304e142eaa597d107df2faf86668f925581c216c40f61287dd",
    (0, 8, 64, 128): "f926bb97871682fff0bd684a4b0cd0231cab39ef2ff812bd85e50e5c01b70c56",
    (1, 8, 64, 128): "45bf95c18f5234e41b8f338857a0d74158f7bdb661682d5192fa221e4285d911",
    (2, 8, 64, 128): "08cb381532e395da4a4e7392342103d42bb181e56cd5924bdad1bbc78391a643",
    (13, 10, 256, 512): "4d627924ffe536f94c62583cc0b8f054ffca954d973960bfefda93fb3c76a91e",
}


class TestGazeboState:
    @pytest.mark.parametrize("case", sorted(STATE_SHA256))
    def test_full_state_pinned(self, case):
        seed, size, stages, bits = case
        beta = random_catalog(seed, size, Horizon(stages, bits), "gazebo-beta")
        _, state = gazebo_run(beta)
        assert state_digest(state) == STATE_SHA256[case]
        # Cascade invariant: a pair whose left side died takes its right side
        # down no later than the pair's emission or the left side's death.
        dead = state.obliterated
        for (a, b), t in state.emissions:
            if a in dead:
                assert b in dead and dead[b] <= max(t, dead[a])


class TestPairCode:
    @given(st.integers(0, 200), st.integers(0, 200))
    def test_injective(self, i, j):
        # Cantor pairing inverse check.
        c = pair_code(i, j)
        w = int(((8 * c + 1) ** 0.5 - 1) // 2)
        while (w + 1) * (w + 2) // 2 <= c:
            w += 1
        jj = c - w * (w + 1) // 2
        assert (w - jj, jj) == (i, j)

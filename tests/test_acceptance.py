"""Acceptance gate: one test per criterion, named by number.

Desk scale is 256 stages by 512 bits unless a criterion is about a
construction whose own parameters pin a smaller horizon (markers and the
genericity pipeline live below their settle stages either way).
"""
from leftre import diagonal, genericity, relations, selfref, zulu
from leftre.cli import CONSTRUCTIONS, main
from leftre.core import (Horizon, Numbering, Prefix, Schedule,
                         index_set_estimate, limit_estimate,
                         process_from_stage_prefixes, validate_left_re,
                         validate_monotone_membership)
from leftre.fixtures import (bambam_infinite_process, diagonal_catalog,
                             diagonal_schedules, k_fixtures, marker_fixture,
                             omega_fixture, omega_worked_example,
                             one_per_stage_schedule, random_catalog,
                             random_leftre_process, requirement_fixture,
                             selfref_fixture)
from leftre.markers import count_h, retrace

FULL = Horizon(256, 512)
MID = Horizon(64, 128)


def test_01_universal_validator_over_fixture_suite():
    layout = zulu.BlockLayout(3)
    processes = []
    for seed in (0, 1, 2):
        state = zulu.ZuluState(omega_fixture(seed, FULL, top_bit=7), layout)
        processes.append(zulu.build_minimal(state, FULL))
        processes.append(zulu.build_maximal(state, FULL))
        processes.append(zulu.maxsep_superset(
            one_per_stage_schedule(seed, FULL), FULL))
        processes.append(random_leftre_process(seed + 50, FULL))
    for K in k_fixtures(FULL):
        processes.append(relations.b_from_k(K, FULL))
    plan = selfref_fixture(1, MID)
    processes.extend(selfref.make_into_itself(plan))
    alpha, _ = relations.gazebo_run(random_catalog(1, 5, MID, "gz"))
    processes.extend(alpha)
    B, _ = diagonal.build_diagonal(
        diagonal_catalog(FULL), [Schedule.from_pairs([])] * 4, e_cap=3)
    processes.append(B)
    processes.append(zulu.lowerfarm_witness(
        random_leftre_process(9, FULL, head_zeros=8), frozenset({0, 2})))
    assert len(processes) >= 20
    for p in processes:
        report = validate_left_re(p)
        assert report.ok, (p.label, report)


def test_02_markers_dominate_retrace_count():
    m = marker_fixture(MID)
    finals = m.final_markers(20)
    for n in range(20):
        assert finals[n] > n + 5
        assert count_h(m, finals[n]) == n
    for n in range(19):
        assert retrace(m, finals[n + 1]) == finals[n]
    assert validate_monotone_membership(m.membership_process(), "down").ok
    W = m.complement_schedule()
    proc = W.as_process(MID)
    assert validate_left_re(proc).ok
    assert validate_monotone_membership(proc, "up").ok


def test_03_genericity_pipeline_and_indifference():
    Ws = requirement_fixture()
    assert Ws.count == 4
    plan = genericity.build_generic_plan(Ws, 14, 6, MID)
    for e in range(Ws.count):
        assert genericity.prefix_meets_requirement(
            plan.A, Ws.strings_at(e, None), plan.A.length)
    finals = plan.markers.final_markers(4)
    free = plan.marker_free_intervals(6)
    for n in range(1, 4):
        assert finals[n] > plan.f_values[2 * n]
        assert sum(1 for k in free if k < 2 * n) >= n
    report = genericity.verify_indifference(plan.A, plan.markers, Ws,
                                            Ws.count - 1)
    assert report.ok
    assert report.variants_checked <= 4096


def test_04_selfref_index_set_against_driver():
    for seed in (1, 5, 11):
        plan = selfref_fixture(seed, MID)
        beta = selfref.make_into_itself(plan)
        est = index_set_estimate(beta, plan.classC)
        a_set = plan.A.final_prefix().members() & frozenset(range(plan.indices))
        removed = frozenset(e for e in range(plan.indices)
                            if plan.I.removed(e, MID.stages - 1))
        surviving = frozenset(range(plan.indices)) - removed
        assert (est ^ a_set) <= surviving
        for e in removed:
            assert (e in est) == (e in a_set)


def test_05_singleton_numberings_and_witness():
    hz = Horizon(48, 128)
    base = random_catalog(2, 5, hz, "bb")
    fin = selfref.singleton_numbering_finite(frozenset({1, 3}), base)
    target = Prefix.from_set({1, 3}, hz.bits)
    assert index_set_estimate(fin, selfref.limit_equals(target)) == {1, 3}

    A = bambam_infinite_process(hz)
    gamma = selfref.singleton_numbering_infinite(A, list(range(1, 11, 2)), base)
    t2, _ = limit_estimate(A)
    est = index_set_estimate(gamma, selfref.limit_equals(t2))
    members = A.final_prefix().members()
    assert est == frozenset(e for e in range(gamma.index_range) if e in members)

    named = Schedule.from_pairs([(20, 0)]).as_process(hz)
    procs = [Schedule.from_pairs([(x, x)]).as_process(hz) for x in range(1, 8)]
    r = Prefix.from_string("001")
    prev = frozenset()
    for size in range(1, 8):
        W = selfref.singleton_witness(
            Numbering(procs[:size] + [named]), named, r)
        got = W.final_members()
        assert prev <= got
        prev = got
        assert size not in got  # the named set sits at the last index
    assert prev  # nonempty at full catalog size


def test_06_zulu_intervals_btt_and_worked_example():
    layout = zulu.BlockLayout(5)
    st = zulu.ZuluState(omega_worked_example(), layout)
    # Independent recomputation straight from the block-sum definitions.
    assert (st.a(1, 1), st.b(1, 1)) == (1, 15)
    c1, c2 = 2, 8
    d2 = c2 - 4 * c1
    assert st.a(2, 2) == layout.offset(2) + c1 * 16 + (16 - 1 - d2)

    om = omega_fixture(2, FULL, top_bit=31)
    state = zulu.ZuluState(om, layout)
    A = zulu.build_minimal(state, FULL)
    B = zulu.build_maximal(state, FULL)
    for s in range(1, FULL.stages, 15):
        for n in range(1, state.covered(s) + 1):
            lo, hi = layout.interval(n)
            a, b = state.a(n, s), state.b(n, s)
            assert lo <= a <= hi and lo <= b <= hi
            if hi - lo <= 300:
                assert sum(A.bit(s, u) for u in range(lo, hi + 1)) == 1
                assert sum(1 - B.bit(s, u) for u in range(lo, hi + 1)) == 1
            else:
                assert A.bit(s, a) == 1 and B.bit(s, b) == 0
    report = zulu.btt_check(A, B, layout, stages=range(0, FULL.stages, 5),
                            seed=2)
    assert report.ok, report


def test_07_maxsep_ten_randomized_schedules():
    for seed in range(10):
        A = one_per_stage_schedule(seed, FULL)
        E = zulu.maxsep_superset(A, FULL)
        assert validate_left_re(E).ok
        final_a = A.final_members()
        final_e = E.final_prefix().members()
        assert final_a < final_e
        comp = [x for x in range(FULL.bits) if x not in final_a]
        for rank, x in enumerate(comp):
            assert (x in final_e) == (rank % 2 == 1)


def test_08_splitting_alternation():
    half = one_per_stage_schedule(3, Horizon(FULL.stages, FULL.bits // 2))
    A = Schedule.from_pairs([(2 * x + 1, s) for x, s in half.entries]
                            ).as_process(FULL)
    E = zulu.split_subset(A)
    assert validate_left_re(E).ok
    members = sorted(A.final_prefix().members())
    final_e = E.final_prefix().members()
    for k, m in enumerate(members):
        assert (m in final_e) == (k % 2 == 0)


def test_09_inc_decoding_five_fixtures():
    hz = Horizon(64, 96)
    for K in k_fixtures(hz):
        for x in (0, 7, 16):
            odds = process_from_stage_prefixes(
                [Prefix.from_set(range(1, hz.bits, 2), hz.bits)] * hz.stages,
                hz, "odds")
            B = relations.b_from_k(K, hz)
            final_k = K.final_members()
            cands = [process_from_stage_prefixes(
                [Prefix.from_set(frozenset(
                    2 * y + 1 for y in range(x1) if y not in final_k),
                    hz.bits)] * hz.stages, hz, f"c{x1}")
                for x1 in range(x + 1)]
            nu = Numbering([odds, B] + cands)
            oracle = relations.inc_oracle_bruteforce(nu)
            got = relations.decide_k_below(oracle, nu, x, K)
            assert got == {y for y in final_k if y < x}


def test_10_gazebo_persistence_and_oracle_equality():
    hz = Horizon(96, 128)
    ones = (1 << hz.bits) - 1
    for seed in (0, 1, 2):
        beta = random_catalog(seed, 5, hz, "gz")
        alpha, state = relations.gazebo_run(beta)
        oracle = relations.gazebo_lex_emissions(state)
        assert relations.check_persistence(oracle, alpha) is None
        assert oracle.pairs() == relations.lex_oracle_bruteforce(alpha).pairs()
        for a, t in state.obliterated.items():
            for s in range(t, hz.stages):
                assert alpha.at(a).prefix(s).value == ones


def test_11_diagonal_divergence_and_trigger_disjunction():
    nu = diagonal_catalog(FULL)
    empty = [Schedule.from_pairs([])] * 4
    _, settled = diagonal.build_diagonal(nu, empty, e_cap=3)
    Ws = diagonal_schedules(settled.x[-1], FULL, fire_for=(0, 2))
    B, state = diagonal.build_diagonal(nu, Ws, e_cap=3)
    assert validate_left_re(B).ok
    final = B.final_prefix()
    for e in range(4):
        est, _ = limit_estimate(nu.at(e))
        assert final.value != est.value
    s_last = FULL.stages - 1
    for e, stages in state.trigger_stages.items():
        assert len(stages) == 1
        x_e = state.x[s_last][e]
        W = Ws[e].final_members()
        assert (x_e in W) != (B.bit(s_last, x_e) == 1) \
            or (3 * x_e in W) != (B.bit(s_last, 3 * x_e) == 1)


def test_12_replay_determinism_all_constructions(tmp_path):
    for construction in CONSTRUCTIONS:
        a = tmp_path / f"{construction}-a.jsonl"
        b = tmp_path / f"{construction}-b.jsonl"
        for out in (a, b):
            code = main(["run", construction, "--stages", "256", "--bits",
                         "512", "--seed", "13", "--out", str(out)])
            assert code == 0, construction
        assert a.read_bytes() == b.read_bytes(), construction

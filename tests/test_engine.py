import dataclasses
import random
import time
from pathlib import Path

import pytest

from kvcut import lp
from kvcut.engine import (
    INFEASIBLE_STATUS,
    OPTIMAL,
    TIME_LIMIT,
    CgWork,
    SolveOptions,
    _Timeout,
    column_generation,
    disconnection_heuristic,
    solve,
)
from kvcut.graph import Graph, connected_components, is_k_vertex_cut, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.master import CONNECTIVITY_MAX_K, build_clique_family, init_rmp
from kvcut.oracle import Infeasible, OracleResult, brute_force
from kvcut.pricing import BranchState, price

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def karate():
    return read_dimacs(DATA / "karate.col").graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _strip_timing(report):
    d = dataclasses.asdict(report)
    d.pop("pricing_seconds")
    d.pop("total_seconds")
    return d


# ------------------------------------------------------------ edge statuses


def test_trivial_instance_is_optimal_with_empty_cut():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    rep = solve(Instance(g, 3))
    assert rep.status == OPTIMAL
    assert rep.objective == 0.0
    assert rep.cut == ()
    assert rep.num_components == 3
    assert rep.gap_percent == 0.0


def test_infeasible_instance_is_reported():
    g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    rep = solve(Instance(g, 2))
    assert rep.status == INFEASIBLE_STATUS
    assert rep.objective is None
    assert rep.cut is None


def test_time_limit_keeps_the_incumbent_honest():
    rep = solve(Instance(karate(), 10), SolveOptions(time_limit=0.02))
    assert rep.status == TIME_LIMIT
    if rep.objective is not None:
        assert is_k_vertex_cut(karate(), rep.cut, 10)
        if rep.best_bound is not None:
            assert rep.best_bound <= rep.objective + 1e-9


# ------------------------------------------------------------ known optima


def test_karate_k3_optimum():
    rep = solve(Instance(karate(), 3))
    assert rep.status == OPTIMAL
    assert rep.objective == pytest.approx(1.0)
    assert len(rep.cut) == 1
    assert is_k_vertex_cut(karate(), rep.cut, 3)


def test_karate_k5_optimum():
    rep = solve(Instance(karate(), 5))
    assert rep.status == OPTIMAL
    assert rep.objective == pytest.approx(2.0)
    assert is_k_vertex_cut(karate(), rep.cut, 5)
    assert rep.root_lp_bound <= 2.0 + 1e-6
    # the default path's work, pinned so that a refactor cannot move it
    # silently
    assert rep.cut == (0, 1)
    assert rep.nodes == 3
    assert rep.max_depth == 1
    assert rep.cols_total == 126
    assert rep.cols_root == 53


# ------------------------------------------------------------ column generation


def _root_rmp(g, k, connectivity_cut="auto"):
    inst = Instance(g, k)
    return init_rmp(
        inst, build_clique_family(g), connectivity_cut=connectivity_cut
    )


def test_column_generation_converges_at_the_karate_root():
    g = karate()
    rmp = _root_rmp(g, 5)
    work = CgWork()
    res = column_generation(rmp, g, BranchState(), work=work)
    assert res.status == lp.OPTIMAL
    assert not rmp.infeasible(res)
    assert res.objective == pytest.approx(20 / 13, abs=1e-9)
    assert len(rmp.columns) == 53  # the root's cols_root in the pinned solve
    assert work.pivots > 0
    # converged: nothing prices out that is not already pooled
    outcome = price(g, rmp.fam, rmp.extract_duals(res), BranchState())
    assert not any(rmp.add_column(col.subset) for col in outcome.columns)


def test_column_generation_reports_an_infeasible_master():
    # the connectivity row has no artificial: with every vertex kept it
    # asks for a positive deletion cost that no x can pay
    g = Graph(3, [(0, 1), (1, 2)])
    rmp = _root_rmp(g, 2, connectivity_cut="on")
    state = BranchState(fixed_to_keep=frozenset(range(3)))
    for v in range(3):
        rmp.set_vertex_fixed(v, 0)
    for index, col in enumerate(rmp.columns):
        rmp.set_column_active(index, state.allows_cluster(g, col.subset))
    assert column_generation(rmp, g, state, work=CgWork()) is None


def test_column_generation_stops_at_a_past_deadline():
    g = karate()
    rmp = _root_rmp(g, 5)
    work = CgWork()
    with pytest.raises(_Timeout):
        column_generation(
            rmp, g, BranchState(), work=work, deadline=time.monotonic() - 1.0
        )
    assert work.pivots == 0
    assert work.pricing_seconds == 0.0


# ------------------------------------------------------------ vs the oracle


def _random_instances(count, seed, n_lo=6, n_hi=11):
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(n_lo, n_hi)
        g = gnp_graph(n, rng.choice((0.2, 0.3, 0.5)), seed=seed * 997 + trial)
        if trial % 3 == 1:
            g = make_weighted(g, seed=trial)
        elif trial % 3 == 2:
            g = g.with_costs([c + 0.5 for c in g.costs])
        yield Instance(g, rng.randint(2, 5))


def test_matches_oracle_on_random_instances():
    optima = 0
    for inst in _random_instances(30, seed=21):
        rep = solve(inst)
        exact = brute_force(inst)
        if isinstance(exact, Infeasible):
            assert rep.status == INFEASIBLE_STATUS, inst
        else:
            assert isinstance(exact, OracleResult)
            assert rep.status == OPTIMAL, inst
            assert rep.objective == pytest.approx(exact.objective), inst
            assert is_k_vertex_cut(inst.graph, rep.cut, inst.k), inst
            total = sum(inst.graph.costs[v] for v in rep.cut)
            assert rep.objective == pytest.approx(total), inst
            if rep.root_lp_bound is not None:
                assert rep.root_lp_bound <= rep.objective + 1e-6, inst
            optima += 1
    assert optima >= 15


def test_option_variants_reach_the_same_optimum():
    variants = [
        SolveOptions(clique_family="cover"),
        SolveOptions(clique_family="partition"),
        SolveOptions(clique_family="edges"),
        SolveOptions(connectivity_cut="on"),
        SolveOptions(connectivity_cut="off"),
        SolveOptions(pricing_max_columns=1),
        SolveOptions(heuristic=False, symmetry=False),
    ]
    for inst in _random_instances(6, seed=33, n_lo=7, n_hi=10):
        reports = [solve(inst, opts) for opts in variants]
        statuses = {rep.status for rep in reports}
        assert len(statuses) == 1, inst
        if statuses == {OPTIMAL}:
            objectives = {round(rep.objective, 6) for rep in reports}
            assert len(objectives) == 1, inst


def test_repeat_runs_are_identical():
    inst = Instance(karate(), 5)
    first = _strip_timing(solve(inst))
    second = _strip_timing(solve(inst))
    assert first == second


# ------------------------------------------------------------ warm start


def test_heuristic_cuts_a_cycle_for_two():
    inc = disconnection_heuristic(Instance(cycle(6), 2))
    assert inc is not None
    assert inc.objective == pytest.approx(2.0)
    assert inc.components >= 2
    assert is_k_vertex_cut(cycle(6), inc.cut, 2)


def test_heuristic_fails_on_all_clique_components():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert disconnection_heuristic(Instance(g, 3)) is None


def test_heuristic_bounds_the_karate_optimum():
    inc = disconnection_heuristic(Instance(karate(), 3))
    assert inc is not None
    assert is_k_vertex_cut(karate(), inc.cut, 3)
    assert inc.objective >= 1.0  # never better than the true optimum


def test_shared_connectivity_does_not_change_the_heuristic():
    # the master's connectivity row leaves its per-component results for
    # the heuristic's first round; with or without them the incumbent is
    # the same.  Above CONNECTIVITY_MAX_K the master builds no row and
    # shares nothing.
    rng = random.Random(23)
    shared = disconnected = 0
    for trial in range(36):
        big_k = trial % 6 == 0
        n = 36 if big_k else rng.randint(6, 20)
        p = 0.08 if big_k else rng.choice([0.1, 0.2, 0.35])
        g = gnp_graph(n, p, seed=rng.randrange(10**6))
        g = g.with_costs([float(rng.choice([0, 1, 2, 5])) for _ in range(n)])
        k = CONNECTIVITY_MAX_K + 1 if big_k else rng.randint(2, 4)
        inst = Instance(g, k)
        results = {}
        init_rmp(inst, build_clique_family(g), connectivity=results)
        assert bool(results) != big_k, trial
        shared += bool(results)
        disconnected += len(connected_components(g)) > 1
        with_shared = disconnection_heuristic(inst, results)
        assert with_shared == disconnection_heuristic(inst), trial
    assert shared >= 25 and disconnected >= 10


def test_heuristic_success_is_always_feasible():
    for inst in _random_instances(25, seed=55):
        inc = disconnection_heuristic(inst)
        if inc is None:
            continue
        assert is_k_vertex_cut(inst.graph, inc.cut, inst.k), inst
        total = sum(inst.graph.costs[v] for v in inc.cut)
        assert inc.objective == pytest.approx(total), inst
        exact = brute_force(inst)
        assert isinstance(exact, OracleResult), inst
        assert inc.objective >= exact.objective - 1e-9, inst
        pieces = connected_components(
            inst.graph, within=set(range(inst.graph.n)) - set(inc.cut)
        )
        assert inc.components == len(pieces), inst

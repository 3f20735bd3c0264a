import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kvcut
from kvcut import lp
from kvcut.engine import (
    INFEASIBLE_STATUS,
    OPTIMAL,
    TIME_LIMIT,
    BnpNode,
    CgWork,
    EngineError,
    SolveOptions,
    _Search,
    column_generation,
    disconnection_heuristic,
    rounding_heuristic,
    solve,
)
from kvcut.graph import Graph, connected_components, is_k_vertex_cut, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.master import CONNECTIVITY_MAX_K, BranchState, build_clique_family, init_rmp
from kvcut.oracle import Infeasible, OracleResult, brute_force
from kvcut.pricing import price

from graphs import cycle

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def karate():
    return read_dimacs(DATA / "karate.col").graph


def myciel4():
    return read_dimacs(DATA / "myciel4.col").graph


def _cost_and_parts(g, cut):
    """The cost of a vertex set and the components it leaves."""
    pieces = connected_components(g, within=set(range(g.n)) - set(cut))
    return sum(g.costs[v] for v in cut), len(pieces)


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


def test_a_root_the_tree_proves_infeasible_reports_no_root_bound(monkeypatch):
    # with the stable-set screen out of the way, the root LP of C4 at k=3
    # converges on a big-M artificial: no bound and no root columns, as a
    # screened infeasible instance reports
    monkeypatch.setattr("kvcut.engine.screen", lambda inst: None)
    rep = solve(Instance(cycle(4), 3))
    assert (rep.status, rep.nodes) == (INFEASIBLE_STATUS, 1)
    assert rep.root_lp_bound is None
    assert rep.cols_root == 0


def test_time_limit_keeps_the_incumbent_honest():
    # the solve takes 23 ms and more on a 2-vCPU host, so the limit hits
    # inside the root
    rep = solve(Instance(karate(), 10), SolveOptions(time_limit=0.01))
    assert rep.status == TIME_LIMIT
    if rep.objective is not None:
        assert is_k_vertex_cut(karate(), rep.cut, 10)
        assert rep.best_bound <= rep.objective + 1e-9


def test_time_limit_before_the_root_reports_the_zero_bound():
    # set-up alone outlasts the limit, so the root is still on the heap
    # with no LP bound: costs are nonnegative, so 0 bounds the optimum
    rep = solve(Instance(karate(), 10), SolveOptions(time_limit=1e-6))
    assert rep.status == TIME_LIMIT
    assert rep.nodes == 0 and rep.root_lp_bound is None
    assert rep.best_bound == 0.0
    assert rep.objective > 0.0 and rep.gap_percent == 100.0


# ------------------------------------------------------------ known optima


def test_karate_k3_optimum():
    rep = solve(Instance(karate(), 3))
    assert rep.status == OPTIMAL
    assert rep.objective == pytest.approx(1.0)
    assert len(rep.cut) == 1
    assert is_k_vertex_cut(karate(), rep.cut, 3)


_KARATE_K5_SCRIPT = """
import dataclasses, json, sys
from kvcut.engine import solve
from kvcut.graph import read_dimacs
from kvcut.instance import Instance
rep = solve(Instance(read_dimacs(sys.argv[1]).graph, 5))
print(json.dumps(dataclasses.asdict(rep)))
"""


def _single_threaded(script, *args):
    """The JSON that ``script`` prints, run in a child process.

    The child fixes the BLAS thread count before numpy loads, so pinned
    work does not depend on the host's default thread count.
    """
    src = str(Path(kvcut.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_karate_k5_optimum():
    rep = _single_threaded(_KARATE_K5_SCRIPT, DATA / "karate.col")
    assert rep["status"] == OPTIMAL
    assert rep["objective"] == pytest.approx(2.0)
    assert is_k_vertex_cut(karate(), rep["cut"], 5)
    assert rep["root_lp_bound"] <= 2.0 + 1e-6
    # the default path's work, pinned so that a refactor cannot move it
    # silently.  The heuristic starts at 3; rounding the root LP (bound
    # 20/13) finds the cut (32, 33) of cost 2, the bound's ceiling, so the
    # tree closes at the root
    assert tuple(rep["cut"]) == (32, 33)
    assert rep["nodes"] == 1
    assert rep["max_depth"] == 0
    assert rep["cols_total"] == 60
    assert rep["cols_root"] == 60


#: counts the master solves, simplex pivots and max-flows of one solve,
#: then reads the instance from the arguments
_WORK_SCRIPT = """
import json, sys
from kvcut import flow, lp
from kvcut.engine import solve
from kvcut.graph import read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
work = dict(solves=0, pivots=0, flows=0)
lp_solve, max_flow = lp.LinearProgram.solve, flow.FlowNetwork.max_flow
def counted_solve(model, *args, **kwargs):
    res = lp_solve(model, *args, **kwargs)
    work["solves"] += 1
    work["pivots"] += res.iterations
    return res
def counted_flow(net, *args, **kwargs):
    work["flows"] += 1
    return max_flow(net, *args, **kwargs)
lp.LinearProgram.solve, flow.FlowNetwork.max_flow = counted_solve, counted_flow
"""

_WEIGHTED_WORK_SCRIPT = _WORK_SCRIPT + """
n, p, seed, k = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rep = solve(Instance(make_weighted(gnp_graph(n, p, seed), seed), k))
print(json.dumps(dict(work, status=rep.status, objective=rep.objective)))
"""

_SHIPPED_WORK_SCRIPT = _WORK_SCRIPT + """
rep = solve(Instance(read_dimacs(sys.argv[1]).graph, int(sys.argv[2])))
print(json.dumps(dict(work, status=rep.status, objective=rep.objective, nodes=rep.nodes)))
"""


@pytest.mark.parametrize(
    "n, p, seed, k, optimum, solves, pivots, flows",
    [(30, 0.1, 3, 3, 6.0, 22, 239, 300), (35, 0.1, 2, 5, 5.0, 49, 757, 557)],
)
def test_weighted_gnp_work_is_pinned(n, p, seed, k, optimum, solves, pivots, flows):
    # master solves, simplex pivots and max-flows of two weighted solves,
    # so that a change meant to save time per pivot, flow or column
    # cannot move the work itself silently
    rep = _single_threaded(_WEIGHTED_WORK_SCRIPT, n, p, seed, k)
    assert (rep["status"], rep["objective"]) == (OPTIMAL, pytest.approx(optimum))
    assert (rep["solves"], rep["pivots"], rep["flows"]) == (solves, pivots, flows)


def test_published_myciel4_tree_work_is_pinned():
    # the tree of the published myciel4 k=5 solve: nodes, master solves,
    # simplex pivots and max-flows.  Its nodes run the dual phase on warm
    # bases, price with fixing arcs and propagate symmetry, which the
    # weighted roots above never do
    rep = _single_threaded(_SHIPPED_WORK_SCRIPT, DATA / "myciel4.col", 5)
    assert (rep["status"], rep["objective"]) == (OPTIMAL, pytest.approx(7.0))
    assert (rep["nodes"], rep["solves"], rep["pivots"], rep["flows"]) == (7, 37, 440, 656)


def test_time_limit_holds_through_the_automorphism_search():
    # the star K1,150 has 150! automorphisms, and searching for them takes
    # seconds; the search raises at the deadline, before the root's LP,
    # so the solve reports the root's bound 0 and the heuristic's cut
    # (the centre), which is optimal
    g = Graph(151, [(0, v) for v in range(1, 151)])
    start = time.monotonic()
    rep = solve(Instance(g, 3), SolveOptions(time_limit=0.5))
    assert time.monotonic() - start < 2.0
    assert (rep.status, rep.best_bound, rep.nodes) == (TIME_LIMIT, 0.0, 0)
    assert (rep.objective, rep.cut) == (1.0, (0,))


# ------------------------------------------------------------ column generation


def _root_rmp(g, k, connectivity_bound=True):
    inst = Instance(g, k)
    return init_rmp(
        inst, build_clique_family(g), connectivity_bound=connectivity_bound
    )


def test_column_generation_converges_at_the_karate_root():
    g = karate()
    rmp = _root_rmp(g, 5)
    work = CgWork()
    res = column_generation(rmp, BranchState(), work=work)
    assert res.status == lp.OPTIMAL
    assert not rmp.infeasible(res)
    assert res.objective == pytest.approx(20 / 13, abs=1e-9)
    assert len(rmp.columns) == 60  # the root's cols_root in the pinned solve
    assert work.pivots > 0
    # converged: nothing prices out that is not already pooled
    outcome = price(g, rmp.fam, rmp.extract_duals(res), BranchState())
    assert not any(rmp.add_column(col.subset) for col in outcome.columns)


def test_column_generation_raises_engine_error_on_a_singular_basis(monkeypatch):
    def singular(self):
        raise lp.SingularBasisError("basis matrix became singular")

    monkeypatch.setattr(lp._Simplex, "_inverse", singular)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)  # the first pivot inverts
    g = karate()
    work = CgWork()
    with pytest.raises(EngineError, match="^master LP ended with singular$"):
        column_generation(_root_rmp(g, 5), BranchState(), work=work)
    assert work.pivots == 1  # counted up to the failed inversion


def test_column_generation_reports_an_infeasible_master():
    # the connectivity row has no artificial: with every vertex kept it
    # asks for a positive deletion cost that no x can pay
    g = Graph(3, [(0, 1), (1, 2)])
    rmp = _root_rmp(g, 2)
    state = BranchState(fixed_to_keep=frozenset(range(3)))
    assert column_generation(rmp, state, work=CgWork()) is None


def test_column_generation_drops_a_node_whose_converged_lp_needs_an_artificial():
    # no connectivity row: with every vertex of P3 kept, the LP converges
    # on the big-M columns (value 31) instead of failing outright
    g = Graph(3, [(0, 1), (1, 2)])
    rmp = _root_rmp(g, 2, connectivity_bound=False)
    state = BranchState(fixed_to_keep=frozenset(range(3)))
    assert column_generation(rmp, state, work=CgWork()) is None


def test_column_generation_applies_the_node_fixings_itself():
    # a master left restricted to another node's fixings gives the root
    # the same value and pool as a fresh one
    g = karate()
    fresh, moved = _root_rmp(g, 4), _root_rmp(g, 4)
    moved.restrict(BranchState(frozenset({0}), frozenset({33})))
    for rmp in (fresh, moved):
        res = column_generation(rmp, BranchState(), work=CgWork())
        assert res.objective == pytest.approx(15 / 13, abs=1e-9)
        assert len(rmp.columns) == 65
    assert list(moved.columns.items()) == list(fresh.columns.items())


def test_column_generation_stops_at_a_past_deadline():
    g = karate()
    rmp = _root_rmp(g, 5)
    work = CgWork()
    with pytest.raises(TimeoutError):
        column_generation(
            rmp, BranchState(), work=work, deadline=time.monotonic() - 1.0
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


def _differential_instances(count, seed):
    """Small G(n, p), n <= 14, k up to n - 1, four kinds of cost in turn."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(4, 14)
        g = gnp_graph(n, rng.choice((0.2, 0.3, 0.45, 0.6)), seed=rng.randrange(2**32))
        kind = trial % 4
        if kind == 1:  # mostly zero
            costs = [0.0 if rng.random() < 0.6 else float(rng.randint(1, 4)) for _ in range(n)]
        elif kind == 2:
            costs = [float(rng.randint(0, 5)) for _ in range(n)]
        elif kind == 3:
            costs = [round(rng.uniform(0.1, 3.0), 3) for _ in range(n)]
        else:
            costs = [1.0] * n
        top = n - 1 if rng.random() < 0.25 else max(2, n // 2)
        yield Instance(g.with_costs(costs), rng.randint(2, top))


@pytest.mark.parametrize("symmetry", [True, False])
def test_matches_oracle_on_every_cost_kind(symmetry, monkeypatch):
    # unit, mostly-zero, integer 0-5 and fractional costs; large costs are
    # the strict xfail below. symmetry=False solves with no automorphisms.
    if not symmetry:
        monkeypatch.setattr(kvcut.engine, "automorphism_generators", lambda g, deadline: [])
    optima = infeasible = 0
    for inst in _differential_instances(120, seed=24):
        rep = solve(inst)
        exact = brute_force(inst)
        if isinstance(exact, Infeasible):
            assert rep.status == INFEASIBLE_STATUS, inst
            infeasible += 1
            continue
        assert rep.status == OPTIMAL, inst
        assert rep.objective == pytest.approx(exact.objective, abs=1e-6), inst
        assert is_k_vertex_cut(inst.graph, rep.cut, inst.k), inst
        total = sum(inst.graph.costs[v] for v in rep.cut)
        assert rep.objective == pytest.approx(total, abs=1e-6), inst
        if rep.root_lp_bound is not None:
            assert rep.root_lp_bound <= rep.objective + 1e-6, inst
        optima += 1
    assert optima >= 80 and infeasible >= 10


def _symmetric_instances(count, seed):
    """Unit-cost graphs with large groups, n <= 14, four shapes in turn:
    G x K2 prisms, circulants, graphs with added twins, and three copies
    of a graph joined at a hub."""
    rng = random.Random(seed)
    for trial in range(count):
        shape = trial % 4
        if shape == 0:  # G x K2
            m = rng.randint(3, 7)
            g = gnp_graph(m, 0.4, seed=rng.randrange(2**32))
            edges = g.edges + [(u + m, v + m) for u, v in g.edges]
            g = Graph(2 * m, edges + [(v, v + m) for v in range(m)])
        elif shape == 1:  # circulant
            n = rng.randint(5, 14)
            steps = rng.sample(range(1, n // 2 + 1), rng.randint(1, 2))
            pairs = {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps}
            g = Graph(n, sorted(pairs))
        elif shape == 2:  # twins: copies of some vertices' neighbourhoods
            m = rng.randint(4, 9)
            g = gnp_graph(m, 0.35, seed=rng.randrange(2**32))
            edges = list(g.edges)
            twins = rng.sample(range(m), rng.randint(1, min(m, 14 - m)))
            for t, v in enumerate(twins, start=m):
                edges += [(w, t) for w in g.adj[v]]
                if rng.random() < 0.5:
                    edges.append((v, t))  # a true twin
            g = Graph(m + len(twins), edges)
        else:  # three copies joined at a hub
            m = rng.randint(2, 4)
            g = gnp_graph(m, 0.6, seed=rng.randrange(2**32))
            hub = 3 * m
            attach = rng.sample(range(m), rng.randint(1, m))
            edges = [(u + c * m, v + c * m) for c in range(3) for u, v in g.edges]
            edges += [(v + c * m, hub) for c in range(3) for v in attach]
            g = Graph(hub + 1, edges)
        top = g.n - 1 if rng.random() < 0.25 else max(2, g.n // 2)
        yield Instance(g, rng.randint(2, top))


def test_matches_oracle_on_symmetric_instances():
    optima = 0
    for inst in _symmetric_instances(152, seed=26):
        rep = solve(inst)
        exact = brute_force(inst)
        if isinstance(exact, Infeasible):
            assert rep.status == INFEASIBLE_STATUS, inst
            continue
        assert rep.status == OPTIMAL, inst
        assert rep.objective == exact.objective, inst
        assert is_k_vertex_cut(inst.graph, rep.cut, inst.k), inst
        optima += 1
    assert optima >= 100


def test_option_variants_reach_the_same_optimum(monkeypatch):
    def variant(inst, heuristics, symmetry):
        # the tree must also close with no starting incumbent, and with
        # no automorphisms
        with monkeypatch.context() as m:
            if not heuristics:
                m.setattr(kvcut.engine, "disconnection_heuristic", lambda *a: None)
                m.setattr(kvcut.engine, "rounding_heuristic", lambda *a: None)
            if not symmetry:
                m.setattr(kvcut.engine, "automorphism_generators", lambda g, deadline: [])
            return solve(inst)

    variants = [(True, True), (True, False), (False, True), (False, False)]
    longer = 0
    for inst in _random_instances(12, seed=33, n_lo=7, n_hi=10):
        reports = [variant(inst, *flags) for flags in variants]
        statuses = {rep.status for rep in reports}
        assert len(statuses) == 1, inst
        if statuses == {OPTIMAL}:
            objectives = {round(rep.objective, 6) for rep in reports}
            assert len(objectives) == 1, inst
        longer += reports[2].nodes > reports[0].nodes
    assert longer  # the missing incumbent made some tree larger


def test_repeat_runs_are_identical():
    inst = Instance(karate(), 5)
    first = _strip_timing(solve(inst))
    second = _strip_timing(solve(inst))
    assert first == second


# ------------------------------------------------------------ warm start


def test_heuristic_cuts_a_cycle_for_two():
    cut = disconnection_heuristic(Instance(cycle(6), 2))
    assert cut is not None and cut == tuple(sorted(cut))
    cost, parts = _cost_and_parts(cycle(6), cut)
    assert cost == pytest.approx(2.0)
    assert parts >= 2
    assert is_k_vertex_cut(cycle(6), cut, 2)


def test_heuristic_fails_on_all_clique_components():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert disconnection_heuristic(Instance(g, 3)) is None


def test_heuristic_bounds_the_karate_optimum():
    cut = disconnection_heuristic(Instance(karate(), 3))
    assert cut is not None
    assert is_k_vertex_cut(karate(), cut, 3)
    assert _cost_and_parts(karate(), cut)[0] >= 1.0  # never below the optimum


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
        cut = disconnection_heuristic(inst)
        if cut is None:
            continue
        assert cut == tuple(sorted(set(cut))), inst
        assert is_k_vertex_cut(inst.graph, cut, inst.k), inst
        exact = brute_force(inst)
        assert isinstance(exact, OracleResult), inst
        assert _cost_and_parts(inst.graph, cut)[0] >= exact.objective - 1e-9, inst


def test_rounding_heuristic_deletes_by_x_and_restores_dearest_first():
    # 6-cycle, k=2: 0, 1 and 3 go by decreasing x and leave {2}, {4, 5};
    # then 0 (the dearest) comes back, 1 and 3 are needed
    g = cycle(6).with_costs([3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    xvals = [0.9, 0.8, 0.0, 0.7, 0.0, 0.0]
    cut = rounding_heuristic(g, 2, BranchState(), xvals)
    assert (cut, *_cost_and_parts(g, cut)) == ((1, 3), 2.0, 2)
    # equal x: the cheaper vertex goes first, then the lower index
    cut = rounding_heuristic(g, 2, BranchState(), [0.5, 0.5, 0.0, 0.5, 0.0, 0.0])
    assert cut == (1, 3)
    # a cut-fixed vertex stays deleted, a keep-fixed one is never deleted:
    # with 5 cut and 1 kept, 0 and 3 go, and 0 comes back
    state = BranchState(frozenset({5}), frozenset({1}))
    cut = rounding_heuristic(g, 2, state, xvals)
    assert cut == (3, 5)
    # the next x_v is 0 before k components remain
    assert rounding_heuristic(g, 3, BranchState(), xvals) is None


def test_rounding_heuristic_cuts_are_feasible_and_keep_the_fixings():
    rng = random.Random(61)
    rounded = 0
    for inst in _random_instances(40, seed=61):
        g, n = inst.graph, inst.graph.n
        exact = brute_force(inst)
        for _ in range(6):
            order = rng.sample(range(n), n)
            fixed_cut = frozenset(order[: rng.randint(0, 2)])
            fixed_keep = frozenset(order[2 : 2 + rng.randint(0, 2)])
            xvals = [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
            for v in fixed_keep:
                xvals[v] = 1.0  # the LP holds these at 0; the rule must not care
            cut = rounding_heuristic(g, inst.k, BranchState(fixed_cut, fixed_keep), xvals)
            if cut is None:
                continue
            rounded += 1
            assert cut == tuple(sorted(set(cut))), inst
            assert is_k_vertex_cut(g, cut, inst.k), inst
            assert fixed_cut <= set(cut) and fixed_keep.isdisjoint(cut), inst
            assert isinstance(exact, OracleResult), inst
            assert _cost_and_parts(g, cut)[0] >= exact.objective - 1e-9, inst
    assert rounded >= 100


def test_offer_keeps_only_verified_cheaper_cuts():
    # the one path to the incumbent: on a 6-cycle with k=2, {0} leaves one
    # path, {0, 3} two; costs make {1, 4} cheaper than {0, 3}
    g = cycle(6).with_costs([2.0, 1.0, 1.0, 2.0, 1.0, 1.0])
    search = _Search(Instance(g, 2), SolveOptions())
    assert search._offer(None) is False
    assert search._offer((0,)) is False  # not a cut: one component remains
    assert search.incumbent is None
    assert search._offer((0, 3)) is True
    assert (search.incumbent.cut, search.incumbent.objective) == ((0, 3), 4.0)
    before = search.incumbent
    assert search._offer((0,)) is False
    assert search.incumbent is before
    # a dearer cut (cost 5) is a cut, so the offer succeeds, but nothing changes
    assert search._offer((0, 2, 3)) is True
    assert search.incumbent is before
    # a cheaper cut replaces it with its own cost and component count
    assert search._offer((1, 4)) is True
    inc = search.incumbent
    assert (inc.cut, inc.objective, inc.components) == ((1, 4), 2.0, 2)
    assert type(inc.objective) is float
    # the empty cut of a graph with k components costs 0.0
    empty = _Search(Instance(Graph(3, [(0, 1)]), 2), SolveOptions())
    assert empty._offer(()) is True
    assert (empty.incumbent.objective, empty.incumbent.components) == (0.0, 2)


# ------------------------------------------------------------ branching


def test_branch_selection_solves_no_lp(monkeypatch):
    # branching reads only the pseudocosts the tree has learned from its
    # own node gains; it never re-solves the master
    selecting = False
    selections = 0
    real_solve = lp.LinearProgram.solve
    real_select = _Search._select_branch

    def solve_outside_selection(self, *args, **kwargs):
        if selecting:
            raise AssertionError("branch selection solved an LP")
        return real_solve(self, *args, **kwargs)

    def select(self, *args, **kwargs):
        nonlocal selecting, selections
        selecting = True
        selections += 1
        try:
            return real_select(self, *args, **kwargs)
        finally:
            selecting = False

    monkeypatch.setattr(lp.LinearProgram, "solve", solve_outside_selection)
    monkeypatch.setattr(_Search, "_select_branch", select)
    rep = solve(Instance(myciel4(), 5))  # a tree that branches
    assert rep.status == OPTIMAL and rep.nodes > 1 and selections > 0

    search = _Search(Instance(karate(), 5), SolveOptions())
    xvals = [0.0] * 34
    for v in (3, 7, 9, 11):
        xvals[v] = 0.5
    candidates = [3, 7, 9, 11]
    # nothing observed yet: every score ties, so the lowest index wins
    assert search._select_branch(candidates, xvals) == 3
    # products 0.25 (vertex 3), 1 (7), 5e-6 (9, never observed up) and
    # 0.25 (11): the largest product wins
    for v, down, up in ((3, 1.0, 1.0), (7, 2.0, 2.0), (11, 1.0, 1.0)):
        search.pseudo.record(v, 0, down)
        search.pseudo.record(v, 1, up)
    search.pseudo.record(9, 0, 10.0)
    assert search._select_branch(candidates, xvals) == 7
    # vertex 11 now averages 2 per unit each way, so its product ties with
    # vertex 7's, and the lower index keeps the branch
    search.pseudo.record(11, 0, 3.0)
    search.pseudo.record(11, 1, 3.0)
    assert search._select_branch(candidates, xvals) == 7


def test_branch_gain_is_recorded_per_direction():
    # a child reads its branch vertex off seq and its direction off state:
    # the deletion child learns the up gain, the keep child the down gain
    search = _Search(Instance(karate(), 5), SolveOptions())
    search._branch(BnpNode(BranchState(), -math.inf, None, ()), 7, 0.25, None, 2.0)
    cut, keep = (entry[3] for entry in sorted(search.heap, key=lambda e: e[:3]))
    assert cut.seq == keep.seq == (7,) and cut.frac == keep.frac == 0.25
    assert 7 in cut.state.fixed_to_cut and 7 in keep.state.fixed_to_keep
    search._record_branch_gain(cut, 3.0)  # gain 1 over 0.75 units up
    search._record_branch_gain(keep, 2.5)  # gain 0.5 over 0.25 units down
    assert search.pseudo.stats == {(7, 1): [1.0 / 0.75, 1.0], (7, 0): [0.5 / 0.25, 1.0]}
    assert search.pseudo.estimate(7, 0.25) == pytest.approx((0.5, 1.0))


def _leaf(search, xvals, clusters=()):
    """An LP result with the given x and unit weight on each pooled cluster."""
    rmp = search.rmp
    x = [0.0] * rmp.model.ncols
    for v, value in enumerate(xvals):
        x[rmp.x_vars[v]] = value
    for subset in clusters:
        x[rmp.columns[subset]] = 1.0
    return lp.LpResult(lp.OPTIMAL, 0.0, np.array(x), basis=lp.Basis([], b""))


def test_integral_leaf_that_fails_verification_is_branched_away():
    # path 0-1-2-3-4-5 at k=4: cutting {1, 3, 4} leaves 3 components, so
    # this integral x fails verification.  Vertex 1 sits at 2 but is
    # fixed; vertex 3 sits at 2 and the count row counts cluster {4},
    # which lies inside the cut, so 3 and 4 are the free candidates
    g = Graph(6, [(i, i + 1) for i in range(5)])
    search = _Search(Instance(g, 4), SolveOptions())
    search.rmp = init_rmp(search.inst, build_clique_family(g))
    state = BranchState(fixed_to_cut=frozenset({1}))
    node = BnpNode(state, -math.inf, None, ())
    xvals = [0.0, 2.0, 0.0, 2.0, 1.0, 0.0]
    res = _leaf(search, xvals, clusters=[(4,)])
    search._integral_leaf(node, state, res, xvals, 1.5)
    assert search.incumbent is None
    children = sorted(
        (child.seq[-1] in child.state.fixed_to_cut, child.seq, bound)
        for bound, _, _, child in search.heap
    )
    assert children == [(False, (3,), 1.5), (True, (3,), 1.5)]
    # with no candidate left the point cannot be branched away
    search.heap.clear()
    xvals = [0.0] * 6
    with pytest.raises(EngineError, match="failed component verification"):
        search._integral_leaf(node, state, _leaf(search, xvals), xvals, 1.5)
    assert search.incumbent is None and not search.heap


def test_lagrangian_bound_is_valid_and_never_offered_at_the_root(monkeypatch):
    # A predicate that records each bound column generation offers and
    # never prunes lets every node converge, so each offered bound can be
    # checked against the converged LP value it must not exceed.  Only
    # non-root nodes pass a predicate, and a bound is offered exactly
    # after each stage-2 pricing call.
    calls = []  # per pricing call: [LP objective, count price, outcome, bound]
    last = {}
    seq = []
    process = _Search._process

    solve_model = lp.LinearProgram.solve

    def solve_and_record(model, warm=None):
        res = solve_model(model, warm)
        last["objective"] = res.objective
        return res

    def price_and_record(g, fam, prices, state):
        outcome = price(g, fam, prices, state)
        calls.append([last["objective"], prices.count_price, outcome, None])
        return outcome

    def process_and_record(self, node):
        seq[:] = [node.seq]
        process(self, node)

    totals = {"roots": 0, "offered": 0, "would_prune": 0}

    def cg(rmp, state, basis=None, *, prune=None, **kwargs):
        assert (prune is None) == (seq[0] == ())
        totals["roots"] += prune is None
        start = len(calls)

        def offer(bound):
            calls[-1][3] = bound
            totals["would_prune"] += prune(bound)
            return False

        res = column_generation(
            rmp, state, basis, prune=None if prune is None else offer, **kwargs
        )
        for objective, count_price, outcome, bound in calls[start:]:
            if prune is None or not outcome.columns:
                assert bound is None
                continue
            largest = max(col.violation for col in outcome.columns)
            assert (bound is not None) == (outcome.stage == 2)
            if bound is not None:
                # stage 1 found no cluster beating the count price; a
                # violation can still exceed it by rounding
                assert largest <= count_price + 1e-9
                totals["offered"] += 1
                assert bound == objective - inst.k * min(largest, count_price)
                if res is not None:
                    assert bound <= res.objective + 1e-6
        return res

    monkeypatch.setattr(lp.LinearProgram, "solve", solve_and_record)
    monkeypatch.setattr("kvcut.engine.price", price_and_record)
    monkeypatch.setattr("kvcut.engine.column_generation", cg)
    monkeypatch.setattr(_Search, "_process", process_and_record)
    rng = random.Random(3)
    trees = 0
    for trial in range(16):
        n = rng.randint(12, 22)
        g = gnp_graph(n, rng.choice((0.15, 0.2, 0.3)), seed=rng.randrange(10**6))
        inst = Instance(make_weighted(g, seed=trial), rng.randint(2, 5))
        rep = solve(inst)
        assert rep.status == OPTIMAL, inst
        trees += rep.nodes > 0  # a screened instance runs no tree
    assert totals["roots"] == trees
    assert totals["offered"] >= 50, totals
    assert totals["would_prune"] >= 5, totals


@pytest.mark.parametrize("in_flight", [False, True])
def test_time_limit_report_after_the_root(monkeypatch, in_flight):
    # the clock jumps past the deadline once the root has branched: the
    # tree is open, so the bound and the gap come from its open nodes,
    # and from the node in flight when the deadline hits inside it
    now = [0.0]
    processed = []
    process = _Search._process

    def process_then_expire(self, node):
        processed.append(node.seq)
        if in_flight and node.seq:
            now[0] = 100.0  # expires inside this node's column generation
        process(self, node)
        if not in_flight:
            now[0] = 100.0  # expires before the next node starts

    monkeypatch.setattr("kvcut.engine.time.monotonic", lambda: now[0])
    monkeypatch.setattr(_Search, "_process", process_then_expire)
    search = _Search(Instance(myciel4(), 5), SolveOptions(time_limit=10.0))
    rep = search.run()
    assert rep.status == TIME_LIMIT
    assert len(processed) == (2 if in_flight else 1)
    assert (search.inflight_bound is not None) == in_flight
    open_bounds = [entry[0] for entry in search.heap]
    if in_flight:
        open_bounds.append(search.inflight_bound)
    assert search.heap and rep.best_bound == min(open_bounds)
    assert rep.best_bound == pytest.approx(rep.root_lp_bound)
    assert rep.best_bound <= rep.objective
    assert rep.gap_percent == max(0.0, 100.0 * (rep.objective - rep.best_bound) / rep.objective)
    assert rep.gap_percent > 0.0


def test_large_costs_solve_to_optimality():
    # the connectivity row carries the vertex costs: at this scale a basis
    # inverted afresh leaves a certificate residual of 2.4e-7 against
    # FEAS_TOL 1e-7, the inverse the pivots kept leaves none.  The optimum
    # deletes vertex 1.
    rep = solve(Instance(Graph(3, [(0, 1), (1, 2)], [1e9, 1.9e9, 1.8e9]), 2))
    assert rep.status == OPTIMAL
    assert rep.cut == (1,)


@pytest.mark.xfail(strict=True, raises=EngineError)
def test_large_costs_on_a_path_solve_to_optimality():
    # known defect: the LP's tolerances are absolute, and at this cost
    # scale the master's certificate fails twice, so it ends uncertified;
    # the optimum deletes vertex 2, at cost 1.2e9
    costs = [1.8e9, 2.0e9, 1.2e9, 1.2e9, 1.3e9]
    rep = solve(Instance(Graph(5, [(i, i + 1) for i in range(4)], costs), 2))
    assert rep.status == OPTIMAL
    assert rep.cut == (2,)

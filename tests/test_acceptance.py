"""Acceptance gate: one test per acceptance criterion.

Each test prints one PASS line per verified point (visible with -rA or
-s); a failing criterion fails its test.  The two benchmark graphs that
could not be reconstructed offline fail loudly with instructions instead
of being silently skipped.
"""

import itertools
import math
import random
import time
from pathlib import Path

import pytest

import kvcut.engine
from kvcut.engine import (
    INFEASIBLE_STATUS,
    OPTIMAL,
    disconnection_heuristic,
    solve,
)
from kvcut.flow import weighted_vertex_connectivity
from kvcut.graph import (
    Graph,
    connected_components,
    is_clique,
    is_k_vertex_cut,
    read_dimacs,
)
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.lab import lp_bound_compact, lp_bound_extended, lp_bound_natural
from kvcut.master import BranchState, DualPrices, build_clique_family
from kvcut.oracle import Infeasible, OracleResult, brute_force
from kvcut.pricing import VIOLATION_TOL, cluster_violation, price

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"
TIME_BUDGET = 120.0


def _solve_timed(path, k):
    g = read_dimacs(path).graph
    start = time.monotonic()
    rep = solve(Instance(g, k))
    elapsed = time.monotonic() - start
    return g, rep, elapsed


def _check_published(name, targets):
    path = DATA / name
    for k, want in targets:
        g, rep, elapsed = _solve_timed(path, k)
        assert rep.status == OPTIMAL, (name, k)
        assert rep.objective == want, (name, k, rep.objective)
        assert is_k_vertex_cut(g, rep.cut, k), (name, k)
        assert elapsed <= TIME_BUDGET, (name, k, elapsed)
        print(f"PASS: {name} k={k} optimum {want} in {elapsed:.1f}s")


# ---------------------------------------------------- 1. published optima


def test_criterion_1_karate_published_optima():
    _check_published(
        "karate.col", [(3, 1), (5, 2), (10, 4), (15, 6), (20, 11)]
    )


def test_criterion_1_myciel4_published_optima():
    _check_published("myciel4.col", [(5, 7), (10, 12)])


def test_criterion_1_bcspwr01_published_optima():
    _check_published("bcspwr01.col", [(5, 7), (10, 16)])


def test_criterion_1_chesapeake_published_optima():
    path = DATA / "chesapeake.col"
    if not path.exists():
        pytest.fail(
            "chesapeake.col is not shipped: the 39-vertex Chesapeake Bay "
            "food-web graph could not be reconstructed offline with "
            "certainty (no generator reproduces it, and shipping a guess "
            "would fake the benchmark). Place the DIMACS file at "
            f"{path} to activate this check "
            "(expected optima: k=5 -> 7, k=10 -> 12, k=15 -> 17)."
        )
    _check_published("chesapeake.col", [(5, 7), (10, 12), (15, 17)])


def test_criterion_1_dolphins_published_optima():
    path = DATA / "dolphins.col"
    if not path.exists():
        pytest.fail(
            "dolphins.col is not shipped: the 62-vertex dolphin "
            "social-network graph is an observational dataset that cannot "
            "be regenerated offline (shipping a guess would fake the "
            "benchmark). Place the DIMACS file at "
            f"{path} to activate this check "
            "(expected optima: k=5 -> 2, k=10 -> 7, k=15 -> 13, "
            "k=20 -> 19)."
        )
    _check_published(
        "dolphins.col", [(5, 2), (10, 7), (15, 13), (20, 19)]
    )


# ---------------------------------------------------- 2. oracle equivalence


def _oracle_suite():
    rng = random.Random(20240)
    for trial in range(100):
        n = rng.randint(8, 14)
        p = rng.choice((0.2, 0.3, 0.5))
        g = gnp_graph(n, p, seed=50_000 + trial)
        if trial % 2:
            g = make_weighted(g, seed=trial)
        yield trial, Instance(g, rng.randint(2, 5))


def test_criterion_2_engine_matches_the_oracle():
    feasible = infeasible = 0
    for trial, inst in _oracle_suite():
        rep = solve(inst)
        exact = brute_force(inst)
        if isinstance(exact, Infeasible):
            assert rep.status == INFEASIBLE_STATUS, trial
            infeasible += 1
        else:
            assert isinstance(exact, OracleResult)
            assert rep.status == OPTIMAL, trial
            assert rep.objective == exact.objective, (
                trial, rep.objective, exact.objective,
            )
            assert is_k_vertex_cut(inst.graph, rep.cut, inst.k), trial
            feasible += 1
    assert feasible and infeasible  # both behaviors were exercised
    print(
        f"PASS: engine == oracle on 100 instances "
        f"({feasible} feasible, {infeasible} infeasible)"
    )


# ---------------------------------------------------- 3. pricing completeness


def _admissible_subsets(g, bs):
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if bs.allows_cluster(g, combo):
                yield combo


def test_criterion_3_pricing_is_complete():
    rng = random.Random(777)
    for trial in range(200):
        n = rng.randint(2, 9)
        g = gnp_graph(n, rng.uniform(0.15, 0.9), seed=rng.randrange(10**6))
        fam = build_clique_family(g, rng.choice(("cover", "partition", "edges")))
        duals = DualPrices(
            round(rng.uniform(0.0, 3.0), 3),
            [round(rng.uniform(0.0, 2.0), 3) for _ in range(n)],
            [round(rng.uniform(0.0, 2.5), 3) for _ in fam.cliques],
        )
        cut = frozenset(v for v in range(n) if rng.random() < 0.15)
        keep = frozenset(
            v for v in range(n) if v not in cut and rng.random() < 0.15
        )
        bs = BranchState(cut, keep)
        outcome = price(g, fam, duals, bs)
        best = max(
            (cluster_violation(fam, duals, s) for s in _admissible_subsets(g, bs)),
            default=0.0,
        )
        if outcome.columns:
            top = max(col.violation for col in outcome.columns)
            assert abs(top - best) <= 1e-9, trial
        else:
            assert best <= VIOLATION_TOL + 1e-9, trial

    # worked flow-network example: boosting the first path vertex is what
    # exposes the violated singleton, at stage 2
    path3 = Graph(3, [(0, 1), (1, 2)])
    duals = DualPrices(3.0, [1.0, 1.0, 1.0], [3.0, 3.0])
    outcome = price(path3, build_clique_family(path3, "edges"), duals, BranchState())
    assert outcome.stage == 2
    assert outcome.columns[0].subset == (0,)
    assert outcome.columns[0].violation == pytest.approx(1.0)
    print("PASS: two-stage pricing == exhaustive max on 200 configurations")


# ---------------------------------------------------- 4. LP dominance


def test_criterion_4_lp_dominance_and_hand_values():
    rng = random.Random(4242)
    checked = 0
    while checked < 30:
        n = rng.randint(5, 9)
        g = gnp_graph(n, rng.choice((0.25, 0.4, 0.6)), seed=60_000 + checked)
        inst = Instance(g, rng.randint(2, 4))
        natural = lp_bound_natural(inst).value
        edges = lp_bound_extended(inst, family="edges").value
        cover = lp_bound_extended(inst, family="cover").value
        if math.isinf(natural):
            assert math.isinf(edges), checked
            assert math.isinf(cover), checked
        else:
            assert edges == pytest.approx(natural, abs=1e-6), checked
            assert cover >= natural - 1e-6, checked
        checked += 1

    c6 = Instance(Graph(6, [(i, (i + 1) % 6) for i in range(6)]), 2)
    p3 = Instance(Graph(3, [(0, 1), (1, 2)]), 2)
    assert lp_bound_natural(c6).value == pytest.approx(1.5, abs=1e-6)
    assert lp_bound_extended(p3, family="cover").value == pytest.approx(
        1.0, abs=1e-6
    )
    assert lp_bound_compact(p3).value == pytest.approx(0.0, abs=1e-6)
    print("PASS: LP dominance on 30 instances + the three hand values")


# ---------------------------------------------------- 5. connectivity value


def _min_disconnecting_cost(g):
    """Exhaustive minimum cost of breaking any single component in two."""
    best = None
    for comp in connected_components(g):
        others = set(comp)
        for r in range(1, len(comp)):
            for removal in itertools.combinations(comp, r):
                rest = others - set(removal)
                if len(connected_components(g, within=rest)) >= 2:
                    cost = sum(g.costs[v] for v in removal)
                    if best is None or cost < best:
                        best = cost
    return best


def test_criterion_5_connectivity_equals_exhaustive_minimum():
    rng = random.Random(5150)
    broken = 0
    for trial in range(50):
        n = rng.randint(3, 12)
        g = gnp_graph(n, rng.uniform(0.2, 0.95), seed=70_000 + trial)
        if trial % 3 == 0:
            g = make_weighted(g, seed=trial)
        conn = weighted_vertex_connectivity(g)
        want = _min_disconnecting_cost(g)
        if want is None:
            assert conn is None, trial
        else:
            assert conn is not None, trial
            assert conn.cost == pytest.approx(want), trial
            broken += 1
    assert broken >= 25

    karate = read_dimacs(DATA / "karate.col").graph
    conn = weighted_vertex_connectivity(karate)
    assert conn is not None and conn.cost == pytest.approx(1.0)
    clique6 = Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert weighted_vertex_connectivity(clique6) is None
    print(f"PASS: connectivity == exhaustive minimum on 50 graphs "
          f"({broken} breakable)")


# ---------------------------------------------------- 6. warm-start heuristic


def test_criterion_6_heuristic_is_sound():
    succeeded = 0
    for trial, inst in _oracle_suite():
        if trial >= 60:
            break
        cut = disconnection_heuristic(inst)
        if cut is None:
            continue
        succeeded += 1
        assert is_k_vertex_cut(inst.graph, cut, inst.k), trial
        exact = brute_force(inst)
        assert isinstance(exact, OracleResult), trial
        assert sum(inst.graph.costs[v] for v in cut) >= exact.objective - 1e-9, trial
    assert succeeded >= 20

    # the failure branch: two disjoint triangles cannot reach three
    # components because every remaining piece is a clique
    twin = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert disconnection_heuristic(Instance(twin, 3)) is None
    print(f"PASS: heuristic sound on {succeeded} successes + clique failure")


# ---------------------------------------------------- 7. symmetry safety


def _hypercube(d):
    n = 1 << d
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return Graph(n, edges)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + [(i, i + 5) for i in range(5)] + inner)


def test_criterion_7_symmetry_preserves_objectives(monkeypatch):
    def solve_both(inst):
        with monkeypatch.context() as m:
            m.setattr(kvcut.engine, "automorphism_generators", lambda g, deadline: [])
            rep_off = solve(inst)
        return solve(inst), rep_off

    for trial, inst in _oracle_suite():
        if trial >= 40:
            break
        rep_on, rep_off = solve_both(inst)
        assert rep_on.status == rep_off.status, trial
        if rep_on.status == OPTIMAL:
            assert rep_on.objective == pytest.approx(rep_off.objective), trial

    # groups beyond the 64 elements the engine keeps (C12's has 24)
    q4, petersen = _hypercube(4), _petersen()
    c12 = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    for g, k in [(q4, 3), (q4, 5), (petersen, 3), (petersen, 4), (c12, 2)]:
        rep_on, rep_off = solve_both(Instance(g, k))
        assert rep_on.status == rep_off.status == OPTIMAL, (g.n, k)
        assert rep_on.objective == rep_off.objective, (g.n, k)
        assert is_k_vertex_cut(g, rep_on.cut, k), (g.n, k)
        smaller = rep_on.nodes <= rep_off.nodes
        marker = "<=" if smaller else "> (soft expectation missed)"
        print(f"PASS: n={g.n} k={k} optimum {rep_on.objective} with and without "
              f"symmetry, nodes {rep_on.nodes} {marker} {rep_off.nodes}")
    print("PASS: symmetry on/off objectives identical on 40 instances")


# ---------------------------------------------------- 8. scope exclusions


def test_criterion_8_documented_exclusions():
    """Aggregate benchmark-table statistics, wall-clock comparisons against
    commercial solvers, the count of newly closed instances, and the
    weighted-run objective tables are NOT reproduced here: they depend on
    unpublished weight realizations, specific hardware, and a commercial
    solver framework.  Their role is covered by the property-based
    criteria 2-7 above."""
    print("PASS: non-reproducible aggregates documented (see docstring)")

import random
from pathlib import Path

import numpy as np
import pytest

from kvcut import lp
from kvcut.graph import Graph, is_clique, read_dimacs
from kvcut.instance import Instance, gnp_graph
from kvcut.master import (
    COVER,
    DUAL_ZERO_TOL,
    EDGES,
    FAMILY_MODES,
    PARTITION,
    BranchState,
    CliqueFamily,
    build_clique_family,
    init_rmp,
)
from kvcut.pricing import price

from graphs import path3

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def connectivity_rhs(rmp):
    """The connectivity row's right-hand side; None when it is left out."""
    rows = 1 + len(rmp.cover_rows) + len(rmp.clique_rows)
    return rmp.model._rhs[rows] if rmp.model.nrows > rows else None


# ------------------------------------------------------------ clique family


def test_triangle_cover_is_single_clique():
    fam = build_clique_family(triangle(), COVER)
    assert fam.cliques == [(0, 1, 2)]


def test_path_family_identical_in_all_modes():
    for mode in FAMILY_MODES:
        fam = build_clique_family(path3(), mode)
        assert fam.cliques == [(0, 1), (1, 2)]


def test_family_invariants_random():
    rng = random.Random(6)
    for trial in range(30):
        n = rng.randint(2, 11)
        g = gnp_graph(n, rng.uniform(0.2, 0.9), seed=trial)
        for mode in FAMILY_MODES:
            fam = build_clique_family(g, mode)
            for c in fam.cliques:
                assert is_clique(g, c)
            containing = {
                e: sum(1 for c in fam.cliques if e[0] in c and e[1] in c)
                for e in g.edges
            }
            assert all(count >= 1 for count in containing.values())
            if mode in (PARTITION, EDGES):
                assert all(count == 1 for count in containing.values())
            # every vertex, even isolated ones, is capped by some clique
            for v in range(n):
                assert any(v in c for c in fam.cliques), (mode, v)


def _family_by_full_scan(g, mode):
    """The clique family as it was built by scanning all n vertices for
    every uncovered edge, O(|E| n): the reference."""
    isolated = [(v,) for v in range(g.n) if g.degree(v) == 0]
    if mode == EDGES:
        return CliqueFamily.from_cliques(g.n, [tuple(sorted(e)) for e in g.edges] + isolated)
    covered = set()
    cliques = []
    for u, v in g.edges:
        if tuple(sorted((u, v))) in covered:
            continue
        members = {u, v}
        for w in range(g.n):
            if w in members:
                continue
            if mode == COVER:
                ok = all(g.has_edge(w, x) for x in members)
            else:
                ok = all(
                    g.has_edge(w, x) and tuple(sorted((w, x))) not in covered
                    for x in members
                )
            if ok:
                members.add(w)
        clique = tuple(sorted(members))
        cliques.append(clique)
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                covered.add((clique[i], clique[j]))
    return CliqueFamily.from_cliques(g.n, cliques + isolated)


def test_family_matches_the_full_scan():
    graphs = [read_dimacs(DATA / f"{name}.col").graph for name in ("karate", "myciel4", "bcspwr01")]
    rng = random.Random(17)
    graphs += [gnp_graph(rng.randint(5, 45), rng.uniform(0.05, 0.6), seed) for seed in range(25)]
    for g in graphs:
        for mode in FAMILY_MODES:
            assert build_clique_family(g, mode) == _family_by_full_scan(g, mode), (g.n, mode)


def test_isolated_vertices_get_singleton_cliques():
    g = Graph(4, [(0, 1)])  # vertices 2 and 3 have no edges
    for mode in FAMILY_MODES:
        fam = build_clique_family(g, mode)
        assert (2,) in fam.cliques and (3,) in fam.cliques


# ------------------------------------------------------------------- RMP


def test_rmp_shape_on_path():
    inst = Instance(path3(), 2)
    rmp = init_rmp(inst, build_clique_family(path3(), COVER))
    # one count row, three cover rows, two clique rows; the connectivity
    # row is active (k=2 <= threshold) and P3 is breakable at cost 1
    assert rmp.count_row == 0
    assert len(rmp.cover_rows) == 3
    assert len(rmp.clique_rows) == 2
    assert rmp.model.nrows == 7
    assert connectivity_rhs(rmp) == 1.0
    assert len(rmp.x_vars) == 3
    assert len(rmp.columns) == 3  # the singleton seed columns
    assert list(rmp.columns) == [(0,), (1,), (2,)]
    # artificials: one for the count row, one per cover row
    assert len(rmp.artificials) == 4
    assert rmp.big_m == 10.0 * 3.0 + 1.0


def test_karate_connectivity_row_activation():
    g = read_dimacs(DATA / "karate.col").graph
    fam = build_clique_family(g, COVER)
    rmp = init_rmp(Instance(g, 5), fam)
    assert connectivity_rhs(rmp) == 1.0  # one vertex disconnects the club
    assert connectivity_rhs(init_rmp(Instance(g, 15), fam)) == 1.0
    assert connectivity_rhs(init_rmp(Instance(g, 16), fam)) is None
    assert connectivity_rhs(init_rmp(Instance(g, 20), fam)) is None
    off = init_rmp(Instance(g, 5), fam, connectivity_bound=False)
    assert connectivity_rhs(off) is None


def test_add_column_dedup_and_coefficients():
    fam = build_clique_family(path3(), EDGES)
    rmp = init_rmp(Instance(path3(), 2), fam)
    assert rmp.add_column((0, 2))
    assert not rmp.add_column((2, 0))  # same set, different order
    assert list(rmp.columns)[-1] == (0, 2)
    var = rmp.columns[(0, 2)]
    touched = rmp.fam.touched_by((0, 2))
    assert touched == {0, 1}  # 0 in clique {0,1}, 2 in clique {1,2}
    rows = [rmp.count_row, rmp.cover_rows[0], rmp.cover_rows[2]]
    rows += [rmp.clique_rows[i] for i in touched]
    column = rmp.model._A[: rmp.model.nrows, var]
    assert {i: a for i, a in enumerate(column) if a} == dict.fromkeys(rows, 1.0)


def test_add_column_writes_the_entries_of_its_pairs():
    # the column of A equals the (row, 1.0) pairs the master once wrote
    # one at a time: the count row, each member's cover row and the row
    # of every family clique the cluster meets
    g = read_dimacs(DATA / "karate.col").graph
    rmp = init_rmp(Instance(g, 4), build_clique_family(g))
    rng = random.Random(4)
    added = 0
    for _ in range(60):
        if not rmp.add_column(rng.sample(range(g.n), rng.randint(1, 7))):
            continue
        added += 1
        subset, var = list(rmp.columns.items())[-1]
        entries = [(rmp.count_row, 1.0)]
        entries += [(rmp.cover_rows[v], 1.0) for v in subset]
        entries += [(rmp.clique_rows[i], 1.0) for i in rmp.fam.touched_by(subset)]
        want = np.zeros(rmp.model.nrows)
        for i, a in entries:
            want[i] = a
        assert rmp.model._A[: rmp.model.nrows, var].tolist() == want.tolist()
        model = rmp.model
        assert (model._c[var], model._lb[var], model._ub[var]) == (0.0, 0.0, lp.INF)
    assert added >= 50


def test_extract_duals_follows_the_scalar_rule():
    def clean(value):
        # the rule one price at a time, as the master once applied it
        if abs(value) < DUAL_ZERO_TOL:
            return 0.0
        return max(0.0, value)

    g = read_dimacs(DATA / "karate.col").graph
    rmp = init_rmp(Instance(g, 4), build_clique_family(g))
    tol = DUAL_ZERO_TOL
    choices = [0.0, -0.0, tol, -tol, 0.5 * tol, -0.5 * tol, 1e-12, 2.0, -1.5, 0.25]
    rng = random.Random(8)
    for _ in range(40):
        y = np.array([
            rng.choice(choices) if rng.random() < 0.7 else rng.uniform(-3.0, 3.0)
            for _ in range(rmp.model.nrows)
        ])
        prices = rmp.extract_duals(lp.LpResult(lp.OPTIMAL, duals=y))
        got = [prices.count_price, *prices.cover_price, *prices.clique_price]
        want = [clean(float(y[rmp.count_row]))]
        want += [clean(float(y[r])) for r in rmp.cover_rows]
        want += [clean(-float(y[r])) for r in rmp.clique_rows]
        assert all(type(v) is float for v in got)
        # hex strings tell -0.0 from 0.0
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_empty_column_rejected():
    rmp = init_rmp(Instance(path3(), 2), build_clique_family(path3()))
    with pytest.raises(ValueError):
        rmp.add_column(())


def test_duals_clamped_and_sigma_zero_when_count_row_slack():
    # k=2 on two far-apart singleton-ish columns: after convergence on
    # a trivial-ish LP the count row can be strictly slack
    g = Graph(4, [(0, 1), (2, 3)])
    inst = Instance(g, 2)
    rmp = init_rmp(inst, build_clique_family(g), connectivity_bound=False)
    res = rmp.model.solve()
    assert res.status == lp.OPTIMAL
    duals = rmp.extract_duals(res)
    assert duals.count_price >= 0.0
    assert all(m >= 0.0 for m in duals.cover_price)
    assert all(p >= 0.0 for p in duals.clique_price)
    # LP optimum: disjoint singleton clusters cover the count row for
    # free, so its dual price vanishes
    assert duals.count_price == 0.0


def test_dual_feasibility_over_pool_after_convergence():
    inst = Instance(path3(), 2)
    fam = build_clique_family(path3(), COVER)
    rmp = init_rmp(inst, fam, connectivity_bound=False)
    state = BranchState()
    while True:
        res = rmp.model.solve()
        assert res.status == lp.OPTIMAL
        outcome = price(path3(), fam, rmp.extract_duals(res), state)
        if not outcome.columns:
            break
        added = 0
        for col in outcome.columns:
            added += rmp.add_column(col.subset)
        if not added:
            break
    duals = rmp.extract_duals(res)
    for subset in rmp.columns:
        violation = (
            duals.count_price
            + sum(duals.cover_price[v] for v in subset)
            - sum(duals.clique_price[i] for i in rmp.fam.touched_by(subset))
        )
        assert violation <= 1e-6
    assert abs(res.objective - 1.0) < 1e-9  # the converged bound on P3


def test_artificial_level_flags_infeasible_node():
    # K4 with k=2 cannot produce 2 clusters; after convergence only the
    # big-M columns can satisfy the count row
    g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    inst = Instance(g, 2)
    fam = build_clique_family(g, COVER)
    rmp = init_rmp(inst, fam, connectivity_bound=False)
    state = BranchState()
    while True:
        res = rmp.model.solve()
        assert res.status == lp.OPTIMAL
        outcome = price(g, fam, rmp.extract_duals(res), state)
        if not outcome.columns:
            break
        if not sum(rmp.add_column(c.subset) for c in outcome.columns):
            break
    assert rmp.infeasible(res)


def test_restrict_pins_x_and_activates_the_allowed_columns():
    rng = random.Random(8)
    g = gnp_graph(12, 0.3, seed=8)
    fam = build_clique_family(g)
    rmp = init_rmp(Instance(g, 3), fam)
    state = BranchState()
    for _ in range(30):
        res = rmp.model.solve()
        assert res.status == lp.OPTIMAL
        for col in price(g, fam, rmp.extract_duals(res), state).columns:
            rmp.add_column(col.subset)
    assert len(rmp.columns) > g.n  # more than the singletons to switch
    model = rmp.model
    for _ in range(40):
        fixed = rng.sample(range(g.n), rng.randint(0, 5))
        cut = frozenset(v for v in fixed if rng.random() < 0.5)
        state = BranchState(cut, frozenset(fixed) - cut)
        rmp.restrict(state)
        for v, var in enumerate(rmp.x_vars):
            want = (1.0, 1.0) if v in cut else (0.0, 0.0) if v in fixed else (0.0, lp.INF)
            assert (model._lb[var], model._ub[var]) == want
        for subset, var in rmp.columns.items():
            allowed = state.allows_cluster(g, subset)
            assert (model._lb[var], model._ub[var]) == (0.0, lp.INF if allowed else 0.0)
    rmp.restrict(BranchState())
    for var in rmp.x_vars + list(rmp.columns.values()):
        assert (model._lb[var], model._ub[var]) == (0.0, lp.INF)

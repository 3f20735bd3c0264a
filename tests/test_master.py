import random
from pathlib import Path

import pytest

from kvcut import lp
from kvcut.graph import Graph, is_clique, read_dimacs
from kvcut.instance import Instance, gnp_graph
from kvcut.master import (
    COVER,
    EDGES,
    FAMILY_MODES,
    PARTITION,
    build_clique_family,
    init_rmp,
)
from kvcut.pricing import BranchState, price

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


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
    assert rmp.connectivity_row is not None
    assert rmp.connectivity_rhs == 1.0
    assert len(rmp.x_vars) == 3
    assert len(rmp.columns) == 3  # the singleton seed columns
    assert [c.subset for c in rmp.columns] == [(0,), (1,), (2,)]
    # artificials: one for the count row, one per cover row
    assert len(rmp.artificials) == 4
    assert rmp.big_m == 10.0 * 3.0 + 1.0


def test_karate_connectivity_row_activation():
    g = read_dimacs(DATA / "karate.col").graph
    fam = build_clique_family(g, COVER)
    rmp = init_rmp(Instance(g, 5), fam)
    assert rmp.connectivity_rhs == 1.0  # one vertex disconnects the club
    assert init_rmp(Instance(g, 15), fam).connectivity_row is not None
    assert init_rmp(Instance(g, 16), fam).connectivity_row is None
    assert init_rmp(Instance(g, 20), fam).connectivity_row is None
    forced = init_rmp(Instance(g, 20), fam, connectivity_cut="on")
    assert forced.connectivity_row is not None
    off = init_rmp(Instance(g, 5), fam, connectivity_cut="off")
    assert off.connectivity_row is None


def test_add_column_dedup_and_coefficients():
    fam = build_clique_family(path3(), EDGES)
    rmp = init_rmp(Instance(path3(), 2), fam)
    assert rmp.add_column((0, 2))
    assert not rmp.add_column((2, 0))  # same set, different order
    col = rmp.columns[-1]
    assert col.subset == (0, 2)
    assert col.touched == (0, 1)  # 0 in clique {0,1}, 2 in clique {1,2}


def test_empty_column_rejected():
    rmp = init_rmp(Instance(path3(), 2), build_clique_family(path3()))
    with pytest.raises(ValueError):
        rmp.add_column(())


def test_duals_clamped_and_sigma_zero_when_count_row_slack():
    # k=2 on two far-apart singleton-ish columns: after convergence on
    # a trivial-ish LP the count row can be strictly slack
    g = Graph(4, [(0, 1), (2, 3)])
    inst = Instance(g, 2)
    rmp = init_rmp(inst, build_clique_family(g), connectivity_cut="off")
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
    rmp = init_rmp(inst, fam, connectivity_cut="off")
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
    for col in rmp.columns:
        violation = (
            duals.count_price
            + sum(duals.cover_price[v] for v in col.subset)
            - sum(duals.clique_price[i] for i in col.touched)
        )
        assert violation <= 1e-6
    assert abs(res.objective - 1.0) < 1e-9  # the converged bound on P3


def test_artificial_level_flags_infeasible_node():
    # K4 with k=2 cannot produce 2 clusters; after convergence only the
    # big-M columns can satisfy the count row
    g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    inst = Instance(g, 2)
    fam = build_clique_family(g, COVER)
    rmp = init_rmp(inst, fam, connectivity_cut="off")
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


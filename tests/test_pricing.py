import itertools
import random

import pytest

from kvcut.flow import INF
from kvcut.graph import Graph
from kvcut.instance import gnp_graph
from kvcut.master import DualPrices, build_clique_family
from kvcut.pricing import (
    MAX_COLUMNS,
    VIOLATION_TOL,
    BranchState,
    PricedColumn,
    build_network,
    cluster_violation,
    price,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def shaped_duals():
    # count price 3, unit cover prices, both edge cliques priced at 3:
    # the plain min cut is empty and only the boosted cuts expose the
    # violated singletons
    return DualPrices(3.0, [1.0, 1.0, 1.0], [3.0, 3.0])


def edge_family(g):
    return build_clique_family(g, "edges")


# ------------------------------------------------------------ branch state


def test_branch_state_rejects_overlap():
    with pytest.raises(ValueError):
        BranchState(frozenset({1}), frozenset({1, 2}))


def test_with_fixing():
    bs = BranchState().with_fixing(0, 1).with_fixing(2, 0)
    assert bs.fixed_to_cut == {0}
    assert bs.fixed_to_keep == {2}


def test_allows_cluster_on_path():
    g = path3()
    cut_mid = BranchState(fixed_to_cut=frozenset({1}))
    assert not cut_mid.allows_cluster(g, (1,))
    assert cut_mid.allows_cluster(g, (0,))
    keep_mid = BranchState(fixed_to_keep=frozenset({1}))
    assert not keep_mid.allows_cluster(g, (0,))  # 1 sits next to it
    assert keep_mid.allows_cluster(g, (0, 1))  # absorbed instead
    assert BranchState().allows_cluster(g, (2,))


# ------------------------------------------------------------ network shape


def test_network_shape_on_shaped_duals():
    g = path3()
    net, source_arcs = build_network(
        g, edge_family(g), shaped_duals(), BranchState()
    )
    # source, sink, three vertices, two cliques
    assert net.n == 7
    forward = net.cap[0::2]
    assert sorted(c for c in forward if c != INF) == [1.0, 1.0, 1.0, 3.0, 3.0]
    assert sum(1 for c in forward if c == INF) == 4
    assert [net.cap[a] for a in source_arcs] == [1.0, 1.0, 1.0]


def test_network_encodes_cut_fixing_as_sink_arc():
    g = path3()
    net, _ = build_network(
        g, edge_family(g), shaped_duals(), BranchState(frozenset({1}))
    )
    arcs = {
        (u, net.to[a], net.cap[a])
        for u in range(net.n)
        for a in net.head[u]
        if a % 2 == 0
    }
    assert (2 + 1, 1, INF) in arcs


def test_network_encodes_keep_fixing_as_neighbor_arcs():
    g = path3()
    net, _ = build_network(
        g,
        edge_family(g),
        shaped_duals(),
        BranchState(fixed_to_keep=frozenset({1})),
    )
    arcs = {
        (u, net.to[a], net.cap[a])
        for u in range(net.n)
        for a in net.head[u]
        if a % 2 == 0
    }
    assert (2 + 0, 2 + 1, INF) in arcs
    assert (2 + 2, 2 + 1, INF) in arcs


# ------------------------------------------------------------ two stages


def test_stage_two_on_shaped_duals():
    g = path3()
    outcome = price(g, edge_family(g), shaped_duals(), BranchState())
    assert outcome.stage == 2
    assert [c.subset for c in outcome.columns] == [(0,), (2,)]
    for col in outcome.columns:
        assert col.violation == pytest.approx(1.0)


def test_stage_one_fires_when_plain_cut_is_nonempty():
    g = path3()
    duals = DualPrices(0.0, [5.0, 0.0, 0.0], [1.0, 1.0])
    outcome = price(g, edge_family(g), duals, BranchState())
    assert outcome.stage == 1
    assert [c.subset for c in outcome.columns] == [(0,)]
    assert outcome.columns[0].violation == pytest.approx(4.0)


def test_all_zero_duals_price_nothing():
    g = path3()
    duals = DualPrices(0.0, [0.0, 0.0, 0.0], [0.0, 0.0])
    outcome = price(g, edge_family(g), duals, BranchState())
    assert outcome.stage is None
    assert outcome.columns == []


def test_max_columns_keeps_best_by_violation_then_lex():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    duals = DualPrices(1.0, [0.0] * 4, [0.1, 0.1, 0.1])
    outcome = price(star, edge_family(star), duals, BranchState())
    assert [c.subset for c in outcome.columns] == [(1,), (2,), (3,), (0,)]
    capped = price(
        star, edge_family(star), duals, BranchState(), max_columns=2
    )
    assert [c.subset for c in capped.columns] == [(1,), (2,)]


def test_stage_two_skips_vertices_fixed_to_cut():
    g = path3()
    bs = BranchState(fixed_to_cut=frozenset({0}))
    outcome = price(g, edge_family(g), shaped_duals(), bs)
    assert [c.subset for c in outcome.columns] == [(2,)]


def test_keep_fixing_can_close_the_round():
    # absorbing the kept middle vertex drags in both cliques, which
    # kills every candidate
    g = path3()
    bs = BranchState(fixed_to_keep=frozenset({1}))
    outcome = price(g, edge_family(g), shaped_duals(), bs)
    assert outcome.stage is None
    best = max(
        cluster_violation(edge_family(g), shaped_duals(), s)
        for s in _admissible_subsets(g, bs)
    )
    assert best <= VIOLATION_TOL


# ------------------------------------------------------------ exhaustive


def _admissible_subsets(g, bs):
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if bs.allows_cluster(g, combo):
                yield combo


def _random_config(rng):
    n = rng.randint(2, 8)
    g = gnp_graph(n, rng.uniform(0.15, 0.9), seed=rng.randrange(10**6))
    mode = rng.choice(["cover", "partition", "edges"])
    fam = build_clique_family(g, mode)
    duals = DualPrices(
        round(rng.uniform(0.0, 3.0), 3) if rng.random() < 0.8 else 0.0,
        [round(rng.uniform(0.0, 2.0), 3) for _ in range(n)],
        [round(rng.uniform(0.0, 2.5), 3) for _ in fam.cliques],
    )
    cut = frozenset(v for v in range(n) if rng.random() < 0.15)
    keep = frozenset(
        v for v in range(n) if v not in cut and rng.random() < 0.15
    )
    return g, fam, duals, BranchState(cut, keep)


def _check_against_exhaustive(g, fam, duals, bs):
    outcome = price(g, fam, duals, bs)
    best = max(
        (
            cluster_violation(fam, duals, s)
            for s in _admissible_subsets(g, bs)
        ),
        default=0.0,
    )
    if outcome.columns:
        assert outcome.stage in (1, 2)
        for col in outcome.columns:
            assert col.subset
            assert not set(col.subset) & bs.fixed_to_cut
            assert bs.allows_cluster(g, col.subset)
            recomputed = cluster_violation(fam, duals, col.subset)
            assert recomputed == pytest.approx(col.violation, abs=1e-9)
            assert recomputed > VIOLATION_TOL
        top = max(col.violation for col in outcome.columns)
        assert top == pytest.approx(best, abs=1e-9)
    else:
        assert outcome.stage is None
        assert best <= VIOLATION_TOL + 1e-9


def test_two_stage_matches_exhaustive_search():
    rng = random.Random(11)
    found = 0
    for _ in range(60):
        g, fam, duals, bs = _random_config(rng)
        _check_against_exhaustive(g, fam, duals, bs)
        if price(g, fam, duals, bs).columns:
            found += 1
    assert found >= 15  # the sweep saw real violations, not just silence


# ------------------------------------------------------------ warm stage 2


def _cold_cluster(g, fam, duals, bs, boosted=None):
    """One minimum cut from zero flow on a fresh network, boosted by hand."""
    net, source_arcs = build_network(g, fam, duals, bs)
    if boosted is not None:
        net.cap[source_arcs[boosted]] += duals.count_price
    _, side = net.max_flow(0, 1)
    return tuple(u - 2 for u in side if 2 <= u < 2 + g.n)


def _cold_sweep(g, fam, duals, bs):
    found = {}
    for v in range(g.n):
        if v in bs.fixed_to_cut:
            continue
        subset = _cold_cluster(g, fam, duals, bs, boosted=v)
        if subset and subset not in found:
            violation = cluster_violation(fam, duals, subset)
            if violation > VIOLATION_TOL:
                found[subset] = violation
    ranked = sorted(found.items(), key=lambda item: (-item[1], item[0]))
    return [PricedColumn(s, viol) for s, viol in ranked[:MAX_COLUMNS]]


def test_warm_stage_two_matches_a_cold_sweep():
    # every third configuration prices the count row at 1e6 against unit
    # covers and cliques priced at their size: stage 1 comes back empty
    # and each boost dwarfs every finite capacity of the network
    rng = random.Random(7)
    swept = found = 0
    for trial in range(90):
        g, fam, duals, bs = _random_config(rng)
        if trial % 3 == 0:
            duals = DualPrices(
                1e6, [1.0] * g.n, [float(len(c)) for c in fam.cliques]
            )
        if _cold_cluster(g, fam, duals, bs) or duals.count_price <= VIOLATION_TOL:
            continue  # stage 2 does not run
        outcome = price(g, fam, duals, bs)
        assert outcome.columns == _cold_sweep(g, fam, duals, bs), trial
        swept += 1
        found += bool(outcome.columns)
    assert swept >= 40 and found >= 30

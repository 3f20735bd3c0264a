import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from kvcut import engine, pricing
from kvcut.engine import CgWork, column_generation, solve
from kvcut.flow import CUT_TOL, INF, FlowNetwork
from kvcut.graph import Graph, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.master import BranchState, DualPrices, build_clique_family, init_rmp
from kvcut.pricing import (
    VIOLATION_TOL,
    PricedColumn,
    build_network,
    cluster_violation,
    price,
)

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


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
    net, _, source_arcs, _ = build_network(
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
    net, _, _, _ = build_network(
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
    net, _, _, _ = build_network(
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


def _build_arc_by_arc(g, fam, duals, bs):
    """The pricing network one ``add_arc`` at a time, with its source arcs
    and direct paths: the reference for ``build_network``'s bulk lists."""
    n = g.n
    net = FlowNetwork(2 + n + len(fam.cliques))
    source_arcs = [net.add_arc(0, 2 + v, duals.cover_price[v]) for v in range(n)]
    paths = []
    for i, clique in enumerate(fam.cliques):
        if duals.clique_price[i] <= 0.0:
            continue
        sink_arc = net.add_arc(2 + n + i, 1, duals.clique_price[i])
        for v in clique:
            paths.append((source_arcs[v], net.add_arc(2 + v, 2 + n + i, INF), sink_arc))
    for v in bs.fixed_to_cut:
        net.add_arc(2 + v, 1, INF)
    for v in bs.fixed_to_keep:
        for w in g.adj[v]:
            net.add_arc(2 + w, 2 + v, INF)
    return net, source_arcs, paths


def _bits(values):
    return [float(x).hex() for x in values]


def test_bulk_network_matches_the_arc_by_arc_build(monkeypatch):
    # every pricing call at the karate k=4 root, the weighted gnp-35-0.1-2
    # k=5 root and a myciel4 k=5 child with a keep and a cut fixing: the
    # same arc ids, heads and capacities, node by node the same arc order,
    # the same source arcs and direct paths, and a fresh residual whose
    # sentinel is, bit for bit, the one residual() sums from the capacities
    calls = []

    def record(g, fam, duals, bs):
        calls.append((g, fam, duals, bs))
        return price(g, fam, duals, bs)

    monkeypatch.setattr(engine, "price", record)
    for g, k in ((read_dimacs(DATA / "karate.col").graph, 4),
                 (make_weighted(gnp_graph(35, 0.1, 2), 2), 5)):
        rmp = init_rmp(Instance(g, k), build_clique_family(g))
        column_generation(rmp, g, BranchState(), work=CgWork())
    roots = len(calls)
    solve(Instance(read_dimacs(DATA / "myciel4.col").graph, 5))
    monkeypatch.undo()
    # the first child of the myciel4 tree that fixes vertices both ways
    child = next(bs for *_, bs in calls[roots:] if bs.fixed_to_cut and bs.fixed_to_keep)
    calls = calls[:roots] + [call for call in calls[roots:] if call[3] == child]
    assert roots >= 40 and len(calls) - roots >= 2
    for i, (g, fam, duals, bs) in enumerate(calls):
        net, base, source_arcs, paths = build_network(g, fam, duals, bs)
        ref, ref_sources, ref_paths = _build_arc_by_arc(g, fam, duals, bs)
        assert (net.n, net.to, net.head) == (ref.n, ref.to, ref.head), i
        assert _bits(net.cap) == _bits(ref.cap), i
        assert list(source_arcs) == ref_sources and paths == ref_paths, i
        # every infinite arc, fixings included, holds the same sentinel
        assert _bits(base) == _bits(ref.residual(headroom=duals.count_price)), i


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


def test_stage_one_returns_both_sides_and_their_pieces():
    # two violated edges' ends make a disconnected minimal side; the free
    # partners 1 and 3 and the unpriced isolated vertex 4 join the
    # maximal side at no cost, and each side splits into its pieces
    g = Graph(5, [(0, 1), (2, 3)])
    fam = edge_family(g)
    assert fam.cliques == [(0, 1), (2, 3), (4,)]
    duals = DualPrices(0.5, [2.0, 0.0, 2.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    outcome = price(g, fam, duals, BranchState())
    assert outcome.stage == 1
    assert [(c.subset, c.violation) for c in outcome.columns] == [
        ((0, 2), 2.5), ((0,), 1.5), ((2,), 1.5),
        ((0, 1, 2, 3, 4), 2.5), ((0, 1), 1.5), ((2, 3), 1.5), ((4,), 0.5),
    ]
    # a keep fixing on 1 holds it in every side with 0, and a cut fixing
    # on 2 leaves the other edge out
    bs = BranchState(frozenset({2}), frozenset({1}))
    outcome = price(g, fam, duals, bs)
    assert [c.subset for c in outcome.columns] == [(0, 1), (0, 1, 4), (4,)]


def test_all_zero_duals_price_nothing():
    g = path3()
    duals = DualPrices(0.0, [0.0, 0.0, 0.0], [0.0, 0.0])
    outcome = price(g, edge_family(g), duals, BranchState())
    assert outcome.stage is None
    assert outcome.columns == []


def test_stage_two_returns_every_find_by_violation_then_lex():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    duals = DualPrices(1.0, [0.0] * 4, [0.1, 0.1, 0.1])
    outcome = price(star, edge_family(star), duals, BranchState())
    # the centre's cut: the leaves join it free, as their edges are paid
    assert [c.subset for c in outcome.columns] == [
        (1,), (2,), (3,), (0,), (0, 1, 2, 3)
    ]
    # fourteen violated leaves, with ties.  Leaves 6 and 10 sit on unpriced
    # edges and reach no priced clique, so every maximal side holds both:
    # each leaf v is found as (v,) and as v with 6 and 10, at one violation
    star = Graph(15, [(0, leaf) for leaf in range(1, 15)])
    prices = [0.3, 0.1, 0.2, 0.1, 0.3, 0.0, 0.2, 0.1, 0.4, 0.0, 0.2, 0.3, 0.1, 0.5]
    duals = DualPrices(1.0, [0.0] * 15, prices)
    ranked = [
        (6,), (6, 10), (10,),  # violation 1.0
        (2,), (2, 6, 10), (4,), (4, 6, 10),  # 0.9
        (6, 8, 10), (6, 10, 13), (8,), (13,),
        (3,), (3, 6, 10), (6, 7, 10), (6, 10, 11), (7,), (11,),  # 0.8
        (1,), (1, 6, 10), (5,), (5, 6, 10), (6, 10, 12), (12,),  # 0.7
        (6, 9, 10), (9,),  # 0.6
        (6, 10, 14), (14,),  # 0.5
    ]
    outcome = price(star, edge_family(star), duals, BranchState())
    assert outcome.stage == 2
    assert [c.subset for c in outcome.columns] == ranked
    violations = [c.violation for c in outcome.columns]
    assert violations == sorted(violations, reverse=True)


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


def test_every_column_is_distinct_admissible_and_violated():
    # both sides of each cut and their pieces: every column once, each
    # admissible and priced out.  Zero cover prices in every other draw
    # leave vertices that only a maximal side holds.  An empty outcome
    # must leave no admissible cluster that prices out.
    rng = random.Random(29)
    several = empty = 0
    for trial in range(200):
        g, fam, duals, bs = _random_config(rng)
        if trial % 2:
            covers = [0.0 if rng.random() < 0.4 else c for c in duals.cover_price]
            duals = DualPrices(duals.count_price, covers, duals.clique_price)
        outcome = price(g, fam, duals, bs)
        subsets = [col.subset for col in outcome.columns]
        assert len(set(subsets)) == len(subsets), trial
        for col in outcome.columns:
            assert col.subset and bs.allows_cluster(g, col.subset), trial
            assert cluster_violation(fam, duals, col.subset) == col.violation, trial
            assert col.violation > VIOLATION_TOL, trial
        if not outcome.columns:
            assert outcome.stage is None
            for s in _admissible_subsets(g, bs):
                assert cluster_violation(fam, duals, s) <= VIOLATION_TOL + 1e-9, trial
            empty += 1
        several += len(subsets) > 1
    assert several >= 40 and empty >= 30


# ------------------------------------------------------------ warm stage 2


def _cold_sides(g, fam, duals, bs, boosted=None):
    """The minimal and the maximal side of one minimum cut from zero flow on
    a fresh network, boosted by hand."""
    net, _, source_arcs, _ = build_network(g, fam, duals, bs)
    if boosted is not None:
        net.cap[source_arcs[boosted]] += duals.count_price
    res = net.residual()
    _, side = net.max_flow(0, 1, res)
    largest = net.maximal_source_side(1, res)
    return [tuple(u - 2 for u in s if 2 <= u < 2 + g.n) for s in (side, largest)]


def _cold_sweep(g, fam, duals, bs):
    found = {}
    for v in range(g.n):
        if v in bs.fixed_to_cut:
            continue
        for subset in _cold_sides(g, fam, duals, bs, boosted=v):
            if subset and subset not in found:
                violation = cluster_violation(fam, duals, subset)
                if violation > VIOLATION_TOL:
                    found[subset] = violation
    ranked = sorted(found.items(), key=lambda item: (-item[1], item[0]))
    return [PricedColumn(s, viol) for s, viol in ranked]


def _sweeps(monkeypatch, run):
    """Every pricing input of ``run()`` on which stage 2 sweeps: an empty
    stage-1 minimal side and a positive count price."""
    inputs = []

    def record(g, fam, duals, bs):
        if duals.count_price > VIOLATION_TOL and not _cold_sides(g, fam, duals, bs)[0]:
            inputs.append((g, fam, duals, bs))
        return price(g, fam, duals, bs)

    monkeypatch.setattr(engine, "price", record)
    run()
    return inputs


def _logged_flows(monkeypatch):
    """(source, limit, value, stopped at the limit) of every max-flow call
    from now on."""
    flows = []
    max_flow = FlowNetwork.max_flow

    def logged(net, s, t, res=None, limit=INF):
        value, side = max_flow(net, s, t, res, limit)
        flows.append((s, limit, value, side is None))
        return value, side

    monkeypatch.setattr(FlowNetwork, "max_flow", logged)
    return flows


def _solve_small_weighted_graphs():
    for seed in range(6):
        for n, p, k in ((12, 0.25, 3), (14, 0.2, 4)):
            solve(Instance(make_weighted(gnp_graph(n, p, seed), seed), k))


def test_warm_stage_two_matches_a_cold_sweep(monkeypatch):
    # random configurations, where every third one prices the count row at
    # 1e6 against unit covers and cliques priced at their size (stage 1
    # comes back empty and each boost dwarfs every finite capacity), and
    # the sweeps of column generation on small weighted graphs, branching
    # fixings included.  Master duals are degenerate, so their enclosure
    # tests often tie exactly: a test that skipped on a tie would drop
    # columns there.  Each path of the sweep must run a few times.
    rng = random.Random(7)
    configs = []
    for trial in range(90):
        g, fam, duals, bs = _random_config(rng)
        if trial % 3 == 0:
            duals = DualPrices(
                1e6, [1.0] * g.n, [float(len(c)) for c in fam.cliques]
            )
        if _cold_sides(g, fam, duals, bs)[0] or duals.count_price <= VIOLATION_TOL:
            continue  # stage 2 does not run
        configs.append((g, fam, duals, bs))
    swept = len(configs)
    configs += _sweeps(monkeypatch, _solve_small_weighted_graphs)
    flows = _logged_flows(monkeypatch)
    paths = Counter()
    found = 0
    for trial, (g, fam, duals, bs) in enumerate(configs):
        flows.clear()
        outcome = price(g, fam, duals, bs)
        for i, (s, limit, value, stopped) in enumerate(flows):
            if s != 0:  # an enclosure test, its limit delta_u + CUT_TOL
                if stopped:
                    paths["skipped"] += 1
                    continue
                paths["tied" if value >= limit - 2 * CUT_TOL else "failed"] += 1
                # a failed test is followed by w's boosted cut
                assert flows[i + 1][0] == 0 and flows[i + 1][1] < INF, trial
            elif limit < INF and stopped:
                paths["saturated"] += 1
        assert outcome.columns == _cold_sweep(g, fam, duals, bs), trial
        found += bool(outcome.columns)
    assert swept >= 40 and len(configs) - swept >= 25 and found >= 50
    assert min(paths[p] for p in ("skipped", "tied", "failed", "saturated")) >= 5


def test_stage_two_work_at_the_karate_k4_root_is_pinned(monkeypatch):
    # the karate k=4 root's column generation sweeps four times.  Per
    # sweep: stage, columns, boosted flows, those that saturate (rule B),
    # enclosure tests, those that skip (rule A).  A rule that silently
    # stops firing leaves the columns as they are and fails only here.
    # The counts read the same under one, two and four BLAS threads.
    g = read_dimacs(DATA / "karate.col").graph
    rmp = init_rmp(Instance(g, 4), build_clique_family(g))
    sweeps = _sweeps(
        monkeypatch,
        lambda: column_generation(rmp, g, BranchState(), work=CgWork()),
    )
    flows = _logged_flows(monkeypatch)
    work = []
    for g, fam, duals, bs in sweeps:
        flows.clear()
        outcome = price(g, fam, duals, bs)
        boosted = [stop for s, limit, _, stop in flows if s == 0 and limit < INF]
        tests = [stop for s, _, _, stop in flows if s != 0]
        work.append((outcome.stage, len(outcome.columns),
                     len(boosted), sum(boosted), len(tests), sum(tests)))
    assert work == [
        (2, 10, 18, 9, 17, 16),
        (2, 2, 22, 20, 12, 12),
        (2, 5, 30, 26, 5, 4),
        (None, 0, 34, 34, 0, 0),
    ]


def test_greedy_flow_leaves_every_outcome_unchanged(monkeypatch):
    # every pricing call of column generation at the karate k=4 root and
    # a weighted G(n, p) root, priced from the greedy flow on the direct
    # paths and from zero flow: the same columns, violations, order and
    # stage, and the same max-flows with the same limits, values and
    # stops.  Only the stage-1 flow adds less, as it starts from more.
    inputs = []

    def record(g, fam, duals, bs):
        inputs.append((g, fam, duals, bs))
        return price(g, fam, duals, bs)

    monkeypatch.setattr(engine, "price", record)
    for g, k in ((read_dimacs(DATA / "karate.col").graph, 4),
                 (make_weighted(gnp_graph(35, 0.1, 2), 2), 5)):
        rmp = init_rmp(Instance(g, k), build_clique_family(g))
        column_generation(rmp, g, BranchState(), work=CgWork())
    monkeypatch.undo()
    flows = _logged_flows(monkeypatch)
    stages = Counter()
    started = 0
    for g, fam, duals, bs in inputs:
        flows.clear()
        outcome = price(g, fam, duals, bs)
        greedy = list(flows)
        flows.clear()
        with monkeypatch.context() as m:
            m.setattr(pricing, "greedy_flow", lambda res, paths: None)
            assert price(g, fam, duals, bs) == outcome
        assert [(s, stop) for s, _, _, stop in greedy] == [(s, stop) for s, _, _, stop in flows]
        # limits and the values of flows that ran to the end agree up to
        # rounding; a flow stopped at its limit ends with whichever push
        # crossed it
        for (_, limit, value, stop), cold in zip(greedy[1:], flows[1:]):
            assert limit == pytest.approx(cold[1], abs=1e-12)
            if not stop:
                assert value == pytest.approx(cold[2], abs=1e-12)
        assert greedy[0][:2] == (0, INF)
        assert greedy[0][2] <= flows[0][2]
        started += greedy[0][2] < flows[0][2]
        stages[outcome.stage] += 1
    # 44 stage-1 calls, 13 sweeps and 2 closing calls under one BLAS
    # thread, each stage-1 flow started from a nonzero greedy flow
    assert stages[1] >= 30 and stages[2] >= 10 and started >= 50

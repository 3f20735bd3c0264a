import itertools
import random
from pathlib import Path

import pytest

from kvcut.flow import (
    INF,
    FlowNetwork,
    component_connectivity,
    min_vertex_cut_between,
    split_network,
    weighted_vertex_connectivity,
)
from kvcut.graph import Graph, connected_components, read_dimacs

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def test_single_arc():
    net = FlowNetwork(2)
    net.add_arc(0, 1, 5.0)
    value, side = net.max_flow(0, 1)
    assert value == 5.0
    assert side == [0]


def test_pricing_shaped_network():
    """The worked two-stage pricing configuration, by hand.

    Path u-v-w with one clique per edge; vertex arcs of capacity 1,
    clique arcs of capacity 3.  Cheapest cut severs all three vertex
    arcs; boosting u to capacity 4 flips the optimum to {u}'s side.
    """
    s, u, v, w, c1, c2, t = range(7)

    def make(boost=0.0):
        net = FlowNetwork(7)
        su = net.add_arc(s, u, 1.0 + boost)
        net.add_arc(s, v, 1.0)
        net.add_arc(s, w, 1.0)
        net.add_arc(u, c1, INF)
        net.add_arc(v, c1, INF)
        net.add_arc(v, c2, INF)
        net.add_arc(w, c2, INF)
        net.add_arc(c1, t, 3.0)
        net.add_arc(c2, t, 3.0)
        return net, su

    net, _ = make()
    value, side = net.max_flow(s, t)
    assert value == 3.0
    assert side == [s]

    net, _ = make(boost=3.0)
    value, side = net.max_flow(s, t)
    assert value == 5.0
    assert set(side) == {s, u, c1}


def test_max_flow_rejects_equal_endpoints():
    net = FlowNetwork(2)
    net.add_arc(0, 1, 1.0)
    with pytest.raises(ValueError, match="same node 0"):
        net.max_flow(0, 0)


def test_resumed_flow_matches_cold_flow_after_raising_one_arc():
    # a finished flow stays feasible when one capacity rises, so Dinic
    # resumes from its residual; the total and the minimal source side
    # must equal a cold run on the raised network.  Infinite arcs and a
    # raise far above every finite capacity catch a sentinel without
    # headroom for the raise.
    rng = random.Random(31)
    for trial in range(80):
        n = rng.randint(3, 8)
        net = FlowNetwork(n)
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.4:
                    cap = INF if rng.random() < 0.15 else round(rng.uniform(0, 4), 2)
                    net.add_arc(a, b, cap)
        finite = [a for a in range(0, len(net.cap), 2) if net.cap[a] != INF]
        if not finite:
            continue
        arc = rng.choice(finite)
        extra = rng.choice([0.5, 3.0, 1e6])
        base = net.residual(headroom=extra)
        first, _ = net.max_flow(0, n - 1, base)
        res = base.copy()
        res[arc] += extra
        more, side = net.max_flow(0, n - 1, res)
        net.cap[arc] += extra
        cold, cold_side = net.max_flow(0, n - 1)
        assert first + more == pytest.approx(cold, rel=1e-12, abs=1e-9), trial
        assert side == cold_side, trial


def test_all_infinite_paths():
    net = FlowNetwork(2)
    net.add_arc(0, 1, INF)
    value, _ = net.max_flow(0, 1)
    assert value > 0  # the sentinel: strictly larger than any finite cut


def test_flow_equals_cut_capacity_on_random_networks():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(3, 8)
        net = FlowNetwork(n)
        caps = {}
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.4:
                    arc = net.add_arc(a, b, round(rng.uniform(0, 4), 2))
                    caps[arc] = (a, b)
        value, side = net.max_flow(0, n - 1)
        side_set = set(side)
        assert 0 in side_set and n - 1 not in side_set
        crossing = sum(
            net.cap[arc]
            for arc, (a, b) in caps.items()
            if a in side_set and b not in side_set
        )
        assert abs(value - crossing) < 1e-9


def test_vertex_cut_path_and_cycle():
    p3 = Graph(3, [(0, 1), (1, 2)])
    res = min_vertex_cut_between(p3, 0, 2)
    assert (res.cost, res.vertices) == (1.0, [1])

    c4 = cycle(4)
    res = min_vertex_cut_between(c4, 0, 2)
    assert res.cost == 2.0
    assert res.vertices == [1, 3]


def test_vertex_cut_rejects_adjacent():
    with pytest.raises(ValueError):
        min_vertex_cut_between(cycle(4), 0, 1)


def _separates(g, cut, s, t):
    rest = [v for v in range(g.n) if v not in cut and v != s and v != t]
    comps = connected_components(g, within=rest + [s, t])
    for comp in comps:
        if s in comp:
            return t not in comp
    raise AssertionError


def test_vertex_cut_matches_exhaustive():
    rng = random.Random(21)
    checked = 0
    for trial in range(40):
        n = rng.randint(4, 10)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.3
        ]
        g = Graph(n, edges, costs=[float(rng.randint(1, 9)) for _ in range(n)])
        s, t = 0, n - 1
        if g.has_edge(s, t):
            continue
        best = None
        others = [v for v in range(n) if v != s and v != t]
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                if _separates(g, set(combo), s, t):
                    cost = sum(g.costs[v] for v in combo)
                    if best is None or cost < best:
                        best = cost
        res = min_vertex_cut_between(g, s, t)
        assert abs(res.cost - best) < 1e-9, trial
        assert _separates(g, set(res.vertices), s, t)
        assert abs(sum(g.costs[v] for v in res.vertices) - res.cost) < 1e-9
        checked += 1
    assert checked >= 20


def test_connectivity_examples():
    karate = read_dimacs(DATA / "karate.col").graph
    res = weighted_vertex_connectivity(karate)
    assert not res.unbreakable
    assert res.cost == 1.0

    assert weighted_vertex_connectivity(complete(4)).unbreakable

    res = weighted_vertex_connectivity(cycle(5))
    assert res.cost == 2.0


def test_connectivity_classic_values():
    # unit-cost connectivity on standard graphs
    petersen = Graph(
        10,
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        ],
    )
    assert weighted_vertex_connectivity(petersen).cost == 3.0

    grid = Graph(
        9,
        [
            (r * 3 + c, r * 3 + c + 1)
            for r in range(3)
            for c in range(2)
        ]
        + [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)],
    )
    assert weighted_vertex_connectivity(grid).cost == 2.0

    for n in (4, 6, 9):
        assert weighted_vertex_connectivity(cycle(n)).cost == 2.0


def test_connectivity_on_disconnected_graph():
    # cheapest break over components: a C4 (breakable at 2) next to a K3
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)])
    res = weighted_vertex_connectivity(g)
    assert res.cost == 2.0
    # all-clique components cannot be broken
    g2 = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert weighted_vertex_connectivity(g2).unbreakable


def _xi_brute(g):
    best = None
    for comp in connected_components(g):
        comp_set = set(comp)
        for r in range(1, len(comp)):
            for combo in itertools.combinations(comp, r):
                rest = sorted(comp_set - set(combo))
                if len(connected_components(g, within=rest)) >= 2:
                    cost = sum(g.costs[v] for v in combo)
                    if best is None or cost < best:
                        best = cost
    return best


def test_connectivity_matches_exhaustive():
    rng = random.Random(77)
    broken = 0
    for trial in range(50):
        n = rng.randint(3, 9)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < rng.choice([0.25, 0.5])
        ]
        costs = [float(rng.randint(1, 9)) for _ in range(n)]
        g = Graph(n, edges, costs=costs)
        expected = _xi_brute(g)
        res = weighted_vertex_connectivity(g)
        if expected is None:
            assert res.unbreakable, trial
        else:
            assert not res.unbreakable, trial
            assert abs(res.cost - expected) < 1e-9, trial
            broken += 1
    assert broken >= 25


def test_split_network_shape():
    g = Graph(3, [(0, 1), (1, 2)], costs=[2.0, 5.0, 1.0])
    net = split_network(g)
    assert net.n == 6
    # one split arc per vertex plus two infinite arcs per edge,
    # each stored with its residual twin
    assert len(net.cap) == 2 * (3 + 4)

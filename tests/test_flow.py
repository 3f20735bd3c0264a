import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from kvcut.engine import CgWork, column_generation, disconnection_heuristic
from kvcut.flow import (
    CUT_TOL,
    INF,
    FlowNetwork,
    component_connectivity,
    min_vertex_cut_between,
    split_network,
    weighted_vertex_connectivity,
)
from kvcut.graph import Graph, connected_components, is_clique, is_k_vertex_cut, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.master import BranchState, build_clique_family, init_rmp

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
    # a finished flow stays feasible when one capacity rises, so the
    # flow resumes from its residual; the total and the minimal source side
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


def _check_flow(net, s, t, res, value):
    """The flow a cold run left in ``res`` is within every capacity and is
    conserved at every node but s and t, where it is +-value."""
    excess = [0.0] * net.n
    for a in range(0, len(net.cap), 2):
        flow = net.cap[a] - res[a]
        assert -1e-12 <= flow <= net.cap[a] + 1e-12, a
        assert res[a + 1] == flow, a
        excess[net.to[a + 1]] -= flow
        excess[net.to[a]] += flow
    assert excess[s] == -value and excess[t] == value
    assert all(abs(x) <= 1e-12 for v, x in enumerate(excess) if v not in (s, t))


def test_one_pass_rechecks_a_tree_path_an_earlier_push_saturated():
    # s=0 labels a=1, which labels b=2 and c=3, each with an arc into t=4,
    # so one pass finds s-a-b-t and then s-a-c-t up the same tree arc s->a
    s, a, b, c, t = range(5)
    cases = [
        # the first push saturates s->a: the second path has nothing left
        ([(s, a, 1.0), (a, b, 5.0), (a, c, 5.0), (b, t, 5.0), (c, t, 5.0)], 1.0, [s]),
        # the first push saturates only a->b, so the second path gets the
        # 2 that is left on s->a, not the 3 it had when c was labelled
        ([(s, a, 3.0), (a, b, 1.0), (a, c, 5.0), (b, t, 5.0), (c, t, 5.0)], 3.0, [s]),
        # as above with s->a wide: the second push is bounded by c->t
        ([(s, a, 9.0), (a, b, 1.0), (a, c, 5.0), (b, t, 5.0), (c, t, 2.0)], 3.0, [s, a, c]),
    ]
    for trial, (arcs, value, side) in enumerate(cases):
        net = FlowNetwork(5)
        for u, v, cap in arcs:
            net.add_arc(u, v, cap)
        res = net.residual()
        assert net.max_flow(s, t, res) == (value, side), trial
        _check_flow(net, s, t, res, value)


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
    assert res is not None
    assert res.cost == 1.0

    assert weighted_vertex_connectivity(complete(4)) is None

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
    assert weighted_vertex_connectivity(g2) is None


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
            assert res is None, trial
        else:
            assert res is not None, trial
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


def _random_network(rng, n, density=0.4, inf_share=0.15):
    """Arcs with capacities in quarters, so every cut sum is exact."""
    net = FlowNetwork(n)
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < density:
                inf = rng.random() < inf_share
                net.add_arc(a, b, INF if inf else rng.randint(0, 16) / 4)
    return net


def _min_cut_source_sets(net, s, t):
    """(capacity, side) of every node set with s and without t, fewest
    nodes first."""
    arcs = [(net.to[a + 1], net.to[a], net.cap[a]) for a in range(0, len(net.cap), 2)]
    others = [v for v in range(net.n) if v != s and v != t]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            yield sum(c for a, b, c in arcs if a in side and b not in side), sorted(side)


def _smallest_min_cut_side(net, s, t):
    """(capacity, side) of the fewest-node minimum-capacity source set, by
    enumerating every node set with s and without t."""
    best = None
    for cap, side in _min_cut_source_sets(net, s, t):
        if best is None or cap < best[0]:
            best = (cap, side)
    return best


def _largest_min_cut_side(net, s, t):
    """(capacity, side) of the most-node minimum-capacity source set, by
    enumerating every node set with s and without t."""
    best = None
    for cap, side in _min_cut_source_sets(net, s, t):
        if best is None or cap <= best[0]:
            best = (cap, side)
    return best


def _cut_side_networks(rng):
    """The first network puts t one BFS level from s, next to other nodes
    of that level, so the BFS stops early there; 120 random ones follow."""
    first = FlowNetwork(5)
    for a, b, cap in [(0, 4, 1.0), (0, 1, 2.0), (0, 2, INF), (1, 4, 1.5),
                      (2, 3, 1.0), (2, 1, 0.5), (3, 4, 2.0)]:
        first.add_arc(a, b, cap)
    return [first] + [_random_network(rng, rng.randint(3, 7)) for _ in range(120)]


def test_max_flow_side_is_the_smallest_minimum_cut():
    # the side comes from the last BFS's labels; it must be the minimal
    # min-cut source side for cold flows and for flows resumed after one
    # arc is raised
    rng = random.Random(53)
    nets = _cut_side_networks(rng)
    checked = 0
    for trial, net in enumerate(nets):
        t = net.n - 1
        expected = _smallest_min_cut_side(net, 0, t)
        if expected[0] == INF:
            continue
        value, side = net.max_flow(0, t)
        assert value == expected[0], trial
        assert side == expected[1], trial
        finite = [a for a in range(0, len(net.cap), 2) if net.cap[a] != INF]
        if finite:
            arc, extra = rng.choice(finite), rng.choice([0.25, 2.0, 64.0])
            base = net.residual(headroom=extra)
            done, _ = net.max_flow(0, t, base)
            base[arc] += extra
            more, side = net.max_flow(0, t, base)
            net.cap[arc] += extra
            expected = _smallest_min_cut_side(net, 0, t)
            assert done + more == expected[0], trial
            assert side == expected[1], trial
        checked += 1
    assert checked >= 80


def test_maximal_source_side_is_the_largest_minimum_cut():
    # the reverse BFS from t must give the maximal min-cut source side,
    # both after a cold flow and after a flow resumed with one arc raised,
    # where it must equal the cold side of the raised network
    rng = random.Random(53)
    checked = larger = 0
    for trial, net in enumerate(_cut_side_networks(rng)):
        t = net.n - 1
        expected = _largest_min_cut_side(net, 0, t)
        if expected[0] == INF:
            continue
        res = net.residual()
        value, smallest = net.max_flow(0, t, res)
        assert value == expected[0], trial
        assert net.maximal_source_side(t, res) == expected[1], trial
        larger += len(expected[1]) > len(smallest)
        finite = [a for a in range(0, len(net.cap), 2) if net.cap[a] != INF]
        if finite:
            arc, extra = rng.choice(finite), rng.choice([0.25, 2.0, 64.0])
            base = net.residual(headroom=extra)
            net.max_flow(0, t, base)
            base[arc] += extra
            net.max_flow(0, t, base)
            net.cap[arc] += extra
            cold = net.residual()
            net.max_flow(0, t, cold)
            side = net.maximal_source_side(t, base)
            assert side == net.maximal_source_side(t, cold), trial
            assert side == _largest_min_cut_side(net, 0, t)[1], trial
        checked += 1
    # the two sides differ often enough that swapping them would fail
    assert checked >= 80 and larger >= 20


def test_max_flow_limit_returns_a_side_exactly_below_the_limit():
    rng = random.Random(61)
    for trial in range(80):
        net = _random_network(rng, rng.randint(3, 8))
        t = net.n - 1
        value, side = net.max_flow(0, t)
        for limit in (value, math.nextafter(value, INF), value + 0.25,
                      value - 0.25, 0.0, -1.0, INF):
            got, got_side = net.max_flow(0, t, limit=limit)
            if value < limit:
                assert (got, got_side) == (value, side), (trial, limit)
            else:
                assert got_side is None and got >= limit, (trial, limit)


def test_interior_flow_on_a_left_residual_matches_a_fresh_network():
    # a flow between two interior nodes of the residual an s-t flow left,
    # as stage-2 pricing's enclosure test runs it: its value and side must
    # equal a cold flow on a fresh network whose capacities are that
    # residual, and the side must be None exactly when the value reaches
    # the limit.  Quarter capacities keep every sum exact.
    rng = random.Random(67)
    moved = stopped = 0
    for trial in range(120):
        net = _random_network(rng, rng.randint(4, 8))
        t = net.n - 1
        left = net.residual()
        first, _ = net.max_flow(0, t, left)
        x, y = rng.sample(range(1, t), 2)
        fresh = FlowNetwork(net.n)
        for a in range(len(net.cap)):
            fresh.add_arc(net.to[a ^ 1], net.to[a], left[a])
        value, side = fresh.max_flow(x, y)
        for limit in (value, value + 0.25, value / 2, 0.0, INF):
            got, got_side = net.max_flow(x, y, left.copy(), limit)
            assert (got_side is None) == (got >= limit), (trial, limit)
            if got_side is None:
                assert limit <= got <= value, (trial, limit)
                stopped += limit > 0.0
            else:
                assert (got, got_side) == (value, side), (trial, limit)
        moved += first > 0 and value > 0
    assert moved >= 40 and stopped >= 100


def _edmonds_karp(net, s, t, res, limit):
    """Reference max-flow: one shortest augmenting path per BFS, with the
    contract of ``max_flow`` (value added, minimal source side or None
    once the value reaches ``limit``)."""
    total = 0.0
    while total < limit or limit == INF:
        tree = {s: None}
        queue = [s]
        for u in queue:
            for a in net.head[u]:
                if net.to[a] not in tree and res[a] > CUT_TOL:
                    tree[net.to[a]] = a
                    queue.append(net.to[a])
        if t not in tree:
            return total, sorted(tree)
        path, v = [], t
        while v != s:
            path.append(tree[v])
            v = net.to[tree[v] ^ 1]
        push = min(res[a] for a in path)
        for a in path:
            res[a] -= push
            res[a ^ 1] += push
        total += push
    return total, None


def _root_flows(monkeypatch, g, k):
    """(kind, network, s, t, residual before, limit, value, side) of every
    max-flow call at the root of (g, k): the master's connectivity row,
    then column generation's pricing."""
    calls = []
    real = FlowNetwork.max_flow

    def record(net, s, t, res=None, limit=INF):
        caller = sys._getframe(1).f_code.co_name
        before = net.residual() if res is None else res.copy()
        value, side = real(net, s, t, res, limit)
        if caller == "min_vertex_cut_between":
            kind = "connectivity"
        elif s == 0:
            kind = "stage 1" if limit == INF else "boosted"
        else:
            kind = "enclosure"
        calls.append((kind, net, s, t, before, limit, value, side))
        return value, side

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    rmp = init_rmp(Instance(g, k), build_clique_family(g))
    column_generation(rmp, g, BranchState(), work=CgWork())
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "g, k",
    [
        (read_dimacs(DATA / "karate.col").graph, 4),
        (make_weighted(gnp_graph(30, 0.1, 3), 3), 3),
    ],
    ids=["karate-k4", "weighted-gnp30-k3"],
)
def test_max_flow_matches_edmonds_karp_on_pricing_residuals(monkeypatch, g, k):
    # every flow of a root as pricing and connectivity run it: fresh stage-1
    # flows, boosted flows resumed from a copy with a limit, enclosure tests
    # between interior nodes of a left residual, and split networks
    calls = _root_flows(monkeypatch, g, k)
    kinds = {kind: [0, 0] for kind in ("connectivity", "stage 1", "boosted", "enclosure")}
    for i, (kind, net, s, t, before, limit, value, side) in enumerate(calls):
        ref, ref_side = _edmonds_karp(net, s, t, before, limit)
        assert (side is None) == (value >= limit), (i, kind)
        assert (side is None) == (ref_side is None), (i, kind)
        if side is not None:
            assert value == pytest.approx(ref, rel=0, abs=1e-9), (i, kind)
            assert side == ref_side, (i, kind)
        kinds[kind][side is None] += 1
    # each kind ran, and every kind but stage 1 both ended and stopped
    assert all(done > 0 for done, _ in kinds.values()), kinds
    assert all(stopped > 0 for kind, (_, stopped) in kinds.items() if kind != "stage 1"), kinds


def _plain_connectivity(g):
    """weighted_vertex_connectivity without the cutoff: every pair of the
    documented list runs to the end and replaces the best when strictly
    cheaper.  The list: u, the first vertex of minimum degree, against each
    non-neighbour in ascending order, then each non-adjacent pair of u's
    neighbours in lexicographic order."""
    best = None
    for comp in connected_components(g):
        sub, ids = g.induced(comp)
        if is_clique(sub, list(range(sub.n))):
            continue
        net = split_network(sub)
        base = net.residual()
        degrees = [len(sub.adj[v]) for v in range(sub.n)]
        u = degrees.index(min(degrees))
        pairs = [(u, t) for t in range(sub.n) if t != u and not sub.has_edge(u, t)]
        nbrs = sorted(sub.adj[u])
        for i, x in enumerate(nbrs):
            pairs += [(x, y) for y in nbrs[i + 1:] if not sub.has_edge(x, y)]
        cut = None
        for s, t in pairs:
            cand = min_vertex_cut_between(sub, s, t, net, base)
            if cut is None or cand.cost < cut.cost - CUT_TOL:
                cut = cand
        if best is None or cut.cost < best[0] - CUT_TOL:
            best = (cut.cost, [ids[v] for v in cut.vertices])
    return best


def test_connectivity_cutoff_keeps_the_plain_sweeps_separator():
    # unit costs tie often and zero costs make zero cuts, so the tie rule
    # is what is tested; sparse draws give disconnected inputs.  On a C4
    # whose cuts overflow to inf every pair ties at inf.
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], costs=[1e308] * 4)
    res = weighted_vertex_connectivity(c4)
    assert (res.cost, res.vertices) == _plain_connectivity(c4) == (INF, [1, 3])
    rng = random.Random(89)
    kinds = set()
    for trial in range(150):
        n = rng.randint(4, 12)
        p = rng.choice([0.15, 0.3, 0.5])
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        kind = trial % 3
        if kind == 0:
            costs = [1.0] * n
        elif kind == 1:
            costs = [float(rng.choice([0, 0, 1, 2])) for _ in range(n)]
        else:
            costs = [float(rng.randint(1, 9)) for _ in range(n)]
        g = Graph(n, edges, costs=costs)
        expected = _plain_connectivity(g)
        res = weighted_vertex_connectivity(g)
        if expected is None:
            assert res is None, trial
            continue
        assert (res.cost, res.vertices) == expected, trial
        comps = connected_components(g)
        kinds.add((kind, len(comps) > 1))
        if len(comps) == 1:
            direct = component_connectivity(g, comps[0])
            assert (direct.cost, direct.vertices) == expected, trial
    assert kinds == {(k, d) for k in range(3) for d in (False, True)}


def _every_pair_connectivity(g):
    """Cheapest cut over every non-adjacent pair of every component: the
    definition, with no rule for choosing sources."""
    best = None
    for comp in connected_components(g):
        for s, t in itertools.combinations(comp, 2):
            if not g.has_edge(s, t):
                cost = min_vertex_cut_between(g, s, t).cost
                best = cost if best is None else min(best, cost)
    return best


def _wheel_with_a_cheap_rim_vertex():
    # hub 5 on the rim cycle 0-1-2-3-4; every separator holds the hub and
    # two non-adjacent rim vertices, so rim vertex 0, the minimum-degree
    # vertex, is in every optimal separator ({5, 0, 2} or {5, 0, 3}, 14)
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return Graph(6, rim + [(i, 5) for i in range(5)], costs=[1, 3, 3, 3, 3, 10])


def _cliques_joined_by_a_cheap_path_vertex():
    # K4 {0,1,2,3} - 4 - K4 {5,6,7,8}: 4 has the minimum degree and
    # {4} is the only optimal separator; its attachments 3 and 5 cost 5
    edges = [(a, b) for q in ((0, 1, 2, 3), (5, 6, 7, 8))
             for a, b in itertools.combinations(q, 2)]
    return Graph(9, edges + [(3, 4), (4, 5)], costs=[1, 1, 1, 5, 1, 5, 1, 1, 1])


def test_connectivity_equals_the_minimum_over_every_pair():
    # (graph, minimum over every pair), then seeded draws checked alike
    hand = [
        (_wheel_with_a_cheap_rim_vertex(), 14.0),
        (_cliques_joined_by_a_cheap_path_vertex(), 1.0),
        # a star on 0 plus chords 1-2 and 3-4: leaf 5 has the minimum
        # degree, and the centre is the only optimal separator
        (Graph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (3, 4)]), 1.0),
        # the house: roof 0 on the square 1-2-4-3, so the minimum-degree
        # vertex 0 is simplicial and has no neighbour pair to cut
        (Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)], costs=[1, 2, 2, 1, 1]), 3.0),
        # two triangles and a pendant path on zero-cost cut vertices 2 and 4
        (Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6)],
               costs=[1, 1, 0, 1, 0, 1, 1]), 0.0),
    ]
    for trial, (g, value) in enumerate(hand):
        assert _every_pair_connectivity(g) == value, trial
    rng = random.Random(97)
    graphs = [g for g, _ in hand]
    for trial in range(150):
        n = rng.randint(4, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        kind = trial % 3
        if kind == 0:
            costs = [1.0] * n
        elif kind == 1:
            costs = [float(rng.choice([0, 0, 0, 1, 3])) for _ in range(n)]
        else:
            costs = [float(rng.randint(1, 9)) for _ in range(n)]
        graphs.append(Graph(n, edges, costs=costs))
    disconnected = checked = 0
    for trial, g in enumerate(graphs):
        expected = _every_pair_connectivity(g)
        res = weighted_vertex_connectivity(g)
        if expected is None:
            assert res is None, trial
            continue
        assert res is not None and res.cost == expected, trial
        assert sum(g.costs[v] for v in res.vertices) == expected, trial
        comps = connected_components(g)
        rest = [v for v in range(g.n) if v not in res.vertices]
        assert len(connected_components(g, within=rest)) > len(comps), trial
        disconnected += len(comps) > 1
        checked += 1
    assert checked >= 120 and disconnected >= 30


def _count_flows(monkeypatch):
    calls = []
    real = FlowNetwork.max_flow

    def spy(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", spy)
    return calls


@pytest.mark.parametrize(
    "name, flows, cost, vertices",
    [
        ("karate", 32, 1.0, [0]),
        ("myciel4", 24, 4.0, [1, 3, 10, 22]),
        ("bcspwr01", 36, 2.0, [18, 19]),
    ],
)
def test_connectivity_flow_counts(monkeypatch, name, flows, cost, vertices):
    # cutting from every neighbour of the lowest vertex took 476, 144 and
    # 220 flows, and found bcspwr01's equal-cost separator [15, 18]
    g = read_dimacs(DATA / f"{name}.col").graph
    calls = _count_flows(monkeypatch)
    res = weighted_vertex_connectivity(g)
    assert (len(calls), res.cost, res.vertices) == (flows, cost, vertices)


def test_heuristic_flow_count_on_a_weighted_gnp_100(monkeypatch):
    # every round of the greedy heuristic runs this connectivity; cutting
    # from every neighbour of the lowest vertex took 6,341 flows here
    inst = Instance(make_weighted(gnp_graph(100, 0.1, 1), 1), 10)
    calls = _count_flows(monkeypatch)
    cut = disconnection_heuristic(inst)
    assert (len(calls), sum(inst.graph.costs[v] for v in cut)) == (697, 171.0)
    assert is_k_vertex_cut(inst.graph, cut, 10)


@pytest.mark.parametrize("cost", [1e16, 1e20, 1e300])
def test_connectivity_with_a_huge_cost(cost):
    # the infinite arcs' sentinel must stay above a cut this large
    g = Graph(3, [(0, 1), (1, 2)], costs=[1.0, cost, 1.0])
    res = weighted_vertex_connectivity(g)
    assert (res.cost, res.vertices) == (cost, [1])

"""Max-flow / min-cut kernel and weighted vertex connectivity.

A small Dinic implementation over adjacency-indexed arc pairs.  Dinic runs
in place on a residual-capacity list that ``FlowNetwork.residual`` builds
from the network's capacities.  Infinite capacities are materialized there
as a sentinel strictly larger than the sum of all finite capacities plus
any headroom asked for, so every finite min cut stays strictly below it and
cut membership is unambiguous.

Residuals are the unit of reuse.  A fresh residual can be copied once per
s-t pair instead of being rebuilt, as the connectivity routines do with
one split network per component.  A residual left by a finished flow stays
a feasible flow when a capacity is raised by at most the headroom, so the
flow of the raised network can resume from a copy of it (parametric
max-flow, Gallo, Grigoriadis & Tarjan 1989), as stage-2 pricing does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, connected_components, is_clique

INF = float("inf")
CUT_TOL = 1e-9


class FlowNetwork:
    """Directed network with paired arcs (arc i and i^1 are reverses)."""

    def __init__(self, n: int = 0):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_arc(self, u: int, v: int, cap: float) -> int:
        """Arc u -> v with the given capacity (INF allowed); returns arc id."""
        a = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(a)
        self.to.append(u)
        self.cap.append(0.0)
        self.head[v].append(a + 1)
        return a

    def residual(self, headroom: float = 0.0) -> list[float]:
        """Residual capacities of the zero flow, one entry per arc.

        Infinite arcs get a sentinel above every finite cut, including
        cuts through arcs a caller later raises by at most ``headroom``
        in total.
        """
        sentinel = sum(c for c in self.cap if c != INF) + headroom + 1.0
        return [sentinel if c == INF else c for c in self.cap]

    def max_flow(
        self, s: int, t: int, res: Optional[list[float]] = None
    ) -> tuple[float, list[int]]:
        """Dinic.  Returns (flow value, source side of a minimum cut).

        Runs on ``res`` in place when given (a list from ``residual``,
        possibly left by earlier flows and with raised entries) and on a
        fresh ``residual()`` otherwise; the value is the flow this call
        adds.  The source side is the set of nodes reachable from s in the
        final residual network, i.e. the unique minimal min-cut source
        side, whatever flow the residual started from.  The network
        itself is never modified.
        """
        if s == t:
            raise ValueError(f"source and sink are the same node {s}")
        if res is None:
            res = self.residual()
        n = self.n
        total = 0.0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for a in self.head[u]:
                    v = self.to[a]
                    if level[v] < 0 and res[a] > CUT_TOL:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                break
            it = [0] * n
            path: list[int] = []  # arc ids along the current partial path
            u = s
            while True:
                if u == t:
                    push = min(res[a] for a in path)
                    total += push
                    rewind = len(path)
                    for i, a in enumerate(path):
                        res[a] -= push
                        res[a ^ 1] += push
                        if res[a] <= CUT_TOL and i < rewind:
                            rewind = i
                    del path[rewind:]
                    u = s if not path else self.to[path[-1]]
                    continue
                advanced = False
                while it[u] < len(self.head[u]):
                    a = self.head[u][it[u]]
                    v = self.to[a]
                    if res[a] > CUT_TOL and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if u == s:
                    break  # blocking flow for this level graph is complete
                level[u] = -1  # dead end for this phase
                a = path.pop()
                u = self.to[a ^ 1]
                it[u] += 1  # skip the arc that led into the dead end
        side = [False] * n
        side[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for a in self.head[u]:
                v = self.to[a]
                if not side[v] and res[a] > CUT_TOL:
                    side[v] = True
                    stack.append(v)
        return total, [v for v in range(n) if side[v]]


@dataclass
class VertexCut:
    cost: float
    vertices: list[int]  # the separator, sorted


def split_network(g: Graph) -> FlowNetwork:
    """Vertex-splitting transform: node 2v is v_in, 2v+1 is v_out.

    The split arc (v_in -> v_out) carries the vertex cost; each edge
    becomes two infinite arcs out_a -> in_b and out_b -> in_a.
    """
    net = FlowNetwork(2 * g.n)
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, g.costs[v])
    for u, v in g.edges:
        net.add_arc(2 * u + 1, 2 * v, INF)
        net.add_arc(2 * v + 1, 2 * u, INF)
    return net


def min_vertex_cut_between(
    g: Graph,
    s: int,
    t: int,
    net: Optional[FlowNetwork] = None,
    base: Optional[list[float]] = None,
) -> VertexCut:
    """Cheapest vertex set whose removal disconnects s from t (both kept).

    A caller cutting many pairs passes g's ``split_network`` and its fresh
    ``residual()`` once; each call runs on a copy of ``base``.
    """
    if s == t or g.has_edge(s, t):
        raise ValueError("endpoints must be distinct and non-adjacent")
    if net is None:
        net = split_network(g)
    res = None if base is None else base.copy()
    value, side = net.max_flow(2 * s + 1, 2 * t, res)
    side_set = set(side)
    cut = [
        v
        for v in range(g.n)
        if v != s and v != t and (2 * v) in side_set and (2 * v + 1) not in side_set
    ]
    return VertexCut(value, sorted(cut))


@dataclass
class ConnectivityResult:
    """Cheapest disconnecting set of a graph, or proof that none exists."""

    unbreakable: bool
    cost: Optional[float] = None
    vertices: Optional[list[int]] = None


#: per-component results, keyed by the component's sorted vertex ids
ComponentResults = dict[tuple[int, ...], ConnectivityResult]


def component_connectivity(g: Graph, component: list[int]) -> ConnectivityResult:
    """Cheapest vertex set disconnecting one connected component.

    Cliques (including singletons) cannot be disconnected.  Otherwise run
    min vertex cuts from the lowest-index vertex u to every non-neighbor,
    plus a guard pass from each neighbor of u (needed when u itself sits in
    every optimal separator).  All cuts share one split network of the
    component's induced subgraph, so the result depends on nothing outside
    the component.
    """
    comp = sorted(component)
    if is_clique(g, comp):
        return ConnectivityResult(unbreakable=True)
    sub, ids = g.induced(comp)
    net = split_network(sub)
    base = net.residual()
    best: Optional[VertexCut] = None
    for src in [0] + sub.adj[0]:  # sub's vertex 0 is the component's lowest
        for t in range(sub.n):
            if t == src or sub.has_edge(src, t):
                continue
            cand = min_vertex_cut_between(sub, src, t, net, base)
            if best is None or cand.cost < best.cost - CUT_TOL:
                best = cand
    # a non-clique component always has a non-adjacent pair in it, and the
    # guard pass guarantees at least one source avoids the optimal separator
    assert best is not None
    return ConnectivityResult(False, best.cost, [ids[v] for v in best.vertices])


def weighted_vertex_connectivity(
    g: Graph,
    within: Optional[Iterable[int]] = None,
    results: Optional[ComponentResults] = None,
) -> ConnectivityResult:
    """Min-cost vertex set whose removal increases the component count.

    For a disconnected graph this is the minimum over components, ties to
    the component with the lowest vertex; a graph whose components are all
    cliques cannot be broken further.  ``within`` restricts to an induced
    subgraph without building it.  A component's result depends only on
    its vertex set, so ``results`` may carry them from one call to the
    next: components found there are not computed again, and the others
    are stored.
    """
    if results is None:
        results = {}
    best: Optional[ConnectivityResult] = None
    for comp in connected_components(g, within):
        key = tuple(comp)
        res = results.get(key)
        if res is None:
            res = results[key] = component_connectivity(g, comp)
        if res.unbreakable:
            continue
        if best is None or res.cost < best.cost - CUT_TOL:
            best = res
    if best is None:
        return ConnectivityResult(unbreakable=True)
    return best

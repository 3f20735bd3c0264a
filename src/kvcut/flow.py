"""Max-flow / min-cut kernel and weighted vertex connectivity.

A small Dinic implementation over adjacency-indexed arc pairs.  Infinite
capacities are materialized as a sentinel strictly larger than the sum of
all finite capacities, so every finite min cut stays strictly below it and
cut membership is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    def increase_capacity(self, arc: int, extra: float):
        self.cap[arc] += extra

    def max_flow(self, s: int, t: int) -> tuple[float, list[int]]:
        """Dinic.  Returns (flow value, source side of a minimum cut).

        The source side is the set of nodes reachable from s in the final
        residual network, i.e. the unique minimal min-cut source side.
        The network itself is not modified, so capacities can be tweaked
        and the flow recomputed (the pricing stage does exactly that).
        """
        finite_total = sum(c for c in self.cap if c != INF)
        sentinel = finite_total + 1.0
        res = [sentinel if c == INF else c for c in self.cap]
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


def min_vertex_cut_between(g: Graph, s: int, t: int) -> VertexCut:
    """Cheapest vertex set whose removal disconnects s from t (both kept)."""
    if s == t or g.has_edge(s, t):
        raise ValueError("endpoints must be distinct and non-adjacent")
    net = split_network(g)
    value, side = net.max_flow(2 * s + 1, 2 * t)
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


def component_connectivity(g: Graph, component: list[int]) -> ConnectivityResult:
    """Cheapest vertex set disconnecting one connected component.

    Cliques (including singletons) cannot be disconnected.  Otherwise run
    min vertex cuts from the lowest-index vertex u to every non-neighbor,
    plus a guard pass from each neighbor of u (needed when u itself sits in
    every optimal separator).
    """
    comp = sorted(component)
    if is_clique(g, comp):
        return ConnectivityResult(unbreakable=True)
    comp_set = set(comp)
    u0 = comp[0]
    best: Optional[VertexCut] = None
    sources = [u0] + [w for w in g.adj[u0] if w in comp_set]
    for src in sources:
        for t in comp:
            if t == src or g.has_edge(src, t):
                continue
            cand = min_vertex_cut_between(g, src, t)
            if best is None or cand.cost < best.cost - CUT_TOL:
                best = cand
    # a non-clique component always has a non-adjacent pair in it, and the
    # guard pass guarantees at least one source avoids the optimal separator
    assert best is not None
    return ConnectivityResult(False, best.cost, best.vertices)


def weighted_vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Min-cost vertex set whose removal increases the component count.

    For a disconnected graph this is the minimum over components; a graph
    whose components are all cliques cannot be broken further.
    """
    best: Optional[ConnectivityResult] = None
    for comp in connected_components(g):
        res = component_connectivity(g, comp)
        if res.unbreakable:
            continue
        if best is None or res.cost < best.cost - CUT_TOL:
            best = res
    if best is None:
        return ConnectivityResult(unbreakable=True)
    return best

"""Max-flow / min-cut kernel and weighted vertex connectivity.

Shortest augmenting paths (Edmonds & Karp 1972) over adjacency-indexed arc
pairs, read off BFS trees.  The flow runs in place on a residual-capacity
list that ``FlowNetwork.residual`` builds from the network's capacities.
Infinite capacities are materialized there as a sentinel strictly larger
than twice the sum of all finite capacities plus any headroom asked for,
so every finite min cut stays strictly below it and cut membership is
unambiguous.

Each pass is one BFS that records the arc labelling each node and scans
no node at the sink's level or deeper, as those lie on no shortest
augmenting path.  Every open arc into the sink from the level before it
ends a shortest path up the BFS tree, and the pass pushes along it the
bottleneck that its earlier pushes left; no path is searched for, so
nothing is retreated from.  The pass that cannot reach the sink labels
exactly the nodes reachable from the source, so the minimal min-cut
source side is read from its labels, and
``maximal_source_side`` reads the largest one off the same residual: the
nodes that cannot reach the sink, by one reverse BFS and no flow.  Every
min-cut source side lies between the two.  A ``limit`` stops
the flow as soon as its value reaches it; connectivity uses this to drop
a pair once it can no longer beat the best separator found so far.

Residuals are the unit of reuse.  A fresh residual can be copied once per
s-t pair instead of being rebuilt, as the connectivity routines do with
one split network per component.  A residual left by a finished flow stays
a feasible flow when a capacity is raised by at most the headroom, so the
flow of the raised network can resume from a copy of it (parametric
max-flow, Gallo, Grigoriadis & Tarjan 1989), as stage-2 pricing's
boosted cuts do.  A flow between any two nodes of such a residual is a
flow of the network that residual describes, with no rebuild: pricing's
enclosure test runs one from a vertex to the boosted vertex of an
earlier cut, on a copy of that cut's residual.

Weighted connectivity cuts n - 1 - deg u pairs from a minimum-degree vertex
u plus the non-adjacent pairs of u's neighbours (Esfahanian & Hakimi 1984);
``component_connectivity`` lists them and proves them exact.  Both
connectivity routines return one ``VertexCut``, or None for a clique
component (or a graph of only cliques), which no vertex set disconnects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from typing import Optional

from .graph import Graph, connected_components, is_clique

INF = float("inf")
CUT_TOL = 1e-9


def sentinel(finite: float, headroom: float = 0.0) -> float:
    """The residual of an infinite arc, given the sum of the finite capacities.

    It lies above every finite cut, including cuts through arcs a caller
    later raises by at most ``headroom`` in total.  Doubling the sum keeps
    it above the largest finite cut when the sum is so large that adding
    1.0 alone would round away.
    """
    return 2.0 * (finite + headroom) + 1.0


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

    @classmethod
    def from_arcs(
        cls, head: list[list[int]], to: list[int], cap: list[float]
    ) -> "FlowNetwork":
        """A network built in bulk, laid out as ``add_arc`` would lay it out."""
        net = cls()
        net.n, net.head, net.to, net.cap = len(head), head, to, cap
        return net

    def residual(self, headroom: float = 0.0) -> list[float]:
        """Residual capacities of the zero flow, one entry per arc.

        Infinite arcs get ``sentinel`` of the finite capacities, summed in
        arc order.
        """
        top = sentinel(sum(c for c in self.cap if c != INF), headroom)
        return [top if c == INF else c for c in self.cap]

    def max_flow(
        self, s: int, t: int, res: Optional[list[float]] = None, limit: float = INF
    ) -> tuple[float, Optional[list[int]]]:
        """Shortest augmenting paths.  Returns (flow value, min-cut source side).

        Runs on ``res`` in place when given (a list from ``residual``,
        possibly left by earlier flows and with raised entries) and on a
        fresh ``residual()`` otherwise; the value is the flow this call
        adds.  Each BFS pass pushes along the shortest paths of its tree,
        as the module docstring sets out.  The pass that pushes nothing
        labels exactly the nodes reachable from s in the final residual
        network, i.e. the unique minimal min-cut source side, whatever
        flow the residual started from.  Once the value reaches ``limit``
        the flow stops and the side is None.  The network itself is never
        modified.
        """
        if s == t:
            raise ValueError(f"source and sink are the same node {s}")
        if res is None:
            res = self.residual()
        n, head, to, tol = self.n, self.head, self.to, CUT_TOL
        total = 0.0
        while total < limit or limit == INF:  # a flow can overflow to inf
            tree = [-1] * n  # the arc that labelled each node
            tree[s] = 0  # labelled; the walk up stops before reading it
            level = [s]
            reached = False
            while level and not reached:
                deeper = []
                for u in level:
                    for a in head[u]:
                        v = to[a]
                        if tree[v] < 0 and res[a] > tol:
                            if v != t:
                                tree[v] = a
                                deeper.append(v)
                                continue
                            reached = True
                            push, w = res[a], u
                            while w != s and push > tol:
                                b = tree[w]
                                if not res[b] >= push:  # a nan closes the path
                                    push = res[b]
                                w = to[b ^ 1]
                            if not push > tol:
                                continue  # an earlier push saturated the path
                            res[a] -= push
                            res[a ^ 1] += push
                            w = u
                            while w != s:
                                b = tree[w]
                                res[b] -= push
                                res[b ^ 1] += push
                                w = to[b ^ 1]
                            total += push
                            if total >= limit != INF:  # inf runs on, as above
                                return total, None
                level = deeper
            if not reached:
                # t is unreachable, so the labelled nodes are the source side
                return total, [v for v in range(n) if tree[v] >= 0]
        return total, None

    def maximal_source_side(self, t: int, res: list[float]) -> list[int]:
        """The largest min-cut source side, read off a maximum flow's residual.

        ``res`` must hold a maximum flow into t, as ``max_flow`` leaves
        it.  The side is every node that cannot reach t in the residual
        network, found by a BFS from t over reversed arcs.  Like the
        minimal side it is unique, whatever maximum flow left ``res``
        (Picard & Queyranne 1980), and its cut has the same capacity.
        """
        head, to, tol = self.head, self.to, CUT_TOL
        side = [True] * self.n  # until the BFS finds a path to t
        side[t] = False
        queue = [t]
        for v in queue:  # grows while it is scanned
            for a in head[v]:
                u = to[a]
                if side[u] and res[a ^ 1] > tol:
                    side[u] = False
                    queue.append(u)
        return list(compress(range(self.n), side))


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
    limit: float = INF,
) -> Optional[VertexCut]:
    """Cheapest vertex set whose removal disconnects s from t (both kept).

    A caller cutting many pairs passes g's ``split_network`` and its fresh
    ``residual()`` once; each call runs on a copy of ``base``.  Returns
    None when the cut costs at least ``limit``.
    """
    if s == t or g.has_edge(s, t):
        raise ValueError("endpoints must be distinct and non-adjacent")
    if net is None:
        net = split_network(g)
    res = None if base is None else base.copy()
    value, side = net.max_flow(2 * s + 1, 2 * t, res, limit)
    if side is None:
        return None
    side_set = set(side)
    cut = [
        v
        for v in range(g.n)
        if v != s and v != t and (2 * v) in side_set and (2 * v + 1) not in side_set
    ]
    return VertexCut(value, sorted(cut))


#: per-component separators, keyed by the component's sorted vertex ids
ComponentResults = dict[tuple[int, ...], Optional[VertexCut]]


def component_connectivity(g: Graph, component: list[int]) -> Optional[VertexCut]:
    """Cheapest vertex set disconnecting one connected component.

    None for a clique (a singleton included): no vertex set disconnects
    it.  Otherwise let u be a vertex of minimum degree in the component,
    ties to the lowest index, and cut the pairs of Esfahanian & Hakimi
    (1984): (u, t) for every t not adjacent to u, in ascending t, then
    (x, y) for every non-adjacent pair x < y of u's neighbours, in
    lexicographic order.  Some pair is separated by an optimal separator
    S, since costs are nonnegative:

    - If u is not in S, some vertex t of another component of G - S is
      not adjacent to u, and the (u, t) cut costs at most c(S).
    - If u is in S and its kept neighbours lie in one component of G - S,
      or u has none, then S - {u} still separates at no higher cost; an
      optimal separator avoiding u exists and the first case applies.
    - Otherwise u has kept neighbours x and y in two components of G - S;
      they are not adjacent, and the (x, y) cut costs at most c(S).

    When u's neighbours form a clique the second list is empty, as the
    third case cannot arise.  All cuts share one split network of the
    component's induced subgraph, so the result depends on nothing outside
    the component.  Each pair's flow stops once it can no longer beat the
    best cut found so far, which leaves the chosen separator unchanged.
    """
    comp = sorted(component)
    if is_clique(g, comp):
        return None
    sub, ids = g.induced(comp)
    net = split_network(sub)
    base = net.residual()
    u = min(range(sub.n), key=sub.degree)  # the first minimum: lowest index
    pairs = [(u, t) for t in range(sub.n) if t != u and not sub.has_edge(u, t)]
    pairs += [(x, y) for x, y in combinations(sub.adj[u], 2) if not sub.has_edge(x, y)]
    best: Optional[VertexCut] = None
    for s, t in pairs:
        # a pair whose flow reaches this limit cannot beat best; the
        # test below still decides when best.cost is inf (no limit)
        limit = INF if best is None else best.cost - CUT_TOL
        cand = min_vertex_cut_between(sub, s, t, net, base, limit)
        if cand is not None and (best is None or cand.cost < limit):
            best = cand
    # a non-clique component has pairs, and by the cases above one is optimal
    assert best is not None
    return VertexCut(best.cost, [ids[v] for v in best.vertices])


def weighted_vertex_connectivity(
    g: Graph,
    components: Optional[list[list[int]]] = None,
    results: Optional[ComponentResults] = None,
) -> Optional[VertexCut]:
    """Min-cost vertex set whose removal increases the component count.

    For a disconnected graph this is the minimum over components, ties to
    the component with the lowest vertex; None when every component is a
    clique, so that no vertex set breaks the graph further.  A caller
    that has an induced subgraph's ``components``, in
    ``connected_components`` form, passes them; None takes g's.  A
    component's result depends only on its vertex set, so ``results`` may
    carry them from one call to the next: components found there are not
    computed again, and the others are stored.
    """
    if results is None:
        results = {}
    best: Optional[VertexCut] = None
    for comp in connected_components(g) if components is None else components:
        key = tuple(comp)
        if key not in results:
            results[key] = component_connectivity(g, comp)
        cut = results[key]
        if cut is not None and (best is None or cut.cost < best.cost - CUT_TOL):
            best = cut
    return best

"""Cluster pricing by minimum cuts on an auxiliary network.

A cluster column prices out when its row prices satisfy

    count_price + sum(cover_price[v] for v in S)
                - sum(clique_price[C] for C meeting S)  >  0.

Maximizing that expression over admissible subsets S is a minimum s-t
cut: the network has one node per vertex and one per positively priced
clique; cutting the source arc of v (capacity cover_price[v]) leaves v
out of S, cutting a clique's sink arc (capacity clique_price) pays for
touching it, and infinite vertex->clique arcs wire the two together.
Branching decisions enter as infinite arcs as well: a vertex fixed to be
deleted gets an infinite sink arc (it never joins a cluster), a vertex
fixed to survive gets infinite arcs from each neighbor (a cluster next
to it must absorb it).

Stage 1 takes one minimum cut.  Its flow starts from a greedy flow that
pushes what each direct path s -> v -> C -> t in turn has left, which
spares it about a third of its BFS passes.  When the cut comes back
empty and the count price is positive, stage 2 re-runs the cut once per eligible vertex with
the count price added to that vertex's source arc, which forces the
vertex into the cluster whenever any violated cluster contains it.
Raising one source arc keeps the stage-1 flow feasible, so each boosted
cut resumes from a copy of the stage-1 residual instead of starting
from zero flow; the network itself is never changed.  Two exact rules
spare most of the sweep's flows without changing its output (proofs in
``price``): a vertex inside an earlier boosted cut's minimal side is
skipped when a small flow on that cut's residual proves that both cuts
are the same (rule A), and a boosted flow stops as soon as it saturates
the boosted arc, which leaves nothing new to collect (rule B).

Every maximum flow proves two clusters: the minimal and the maximal
min-cut source side, which carry the same violation (Picard & Queyranne
1980), and each side's connected pieces are columns too.  Both sides are
read off the final residual, by the flow's last BFS and by one reverse
BFS, so every extra column costs a search, not a flow (several columns
per round: Lübbecke & Desrosiers 2005).  Neither side depends on the flow
a run starts from, so a resumed cut finds the clusters a cold one would.
Nor do the flow values and residual cut capacities that rules A and B
compare: a cut's residual capacity is its capacity less the net flow
across it, which every maximum flow fixes.  So the greedy start changes
no column, violation, order or stage.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .flow import CUT_TOL, INF, FlowNetwork, sentinel
from .graph import Graph, connected_components
from .master import BranchState, CliqueFamily, DualPrices

#: a cluster is worth adding when its violation exceeds this
VIOLATION_TOL = 1e-6


@dataclass
class PricedColumn:
    subset: tuple[int, ...]
    violation: float


@dataclass
class PricingOutcome:
    """Columns worth adding; ``stage`` is None when pricing proves none exist."""

    columns: list[PricedColumn] = field(default_factory=list)
    stage: Optional[int] = None


def build_network(
    g: Graph,
    fam: CliqueFamily,
    prices: DualPrices,
    state: BranchState,
) -> tuple[FlowNetwork, list[float], range, list[tuple[int, int, int]]]:
    """The pricing network, its fresh residual, the source-arc id of every
    vertex and its direct paths.

    Node ids: source 0, sink 1, vertex v at 2+v, clique i at 2+n+i.  Arc
    ids: the source arc of v is 2v; each positively priced clique C, in
    family order, takes its sink arc and then one arc v -> C per member;
    then come one sink arc per vertex fixed to be cut and one arc from each
    neighbour of a vertex fixed to survive.  A direct path s -> v -> C -> t
    is given by its three arc ids.  The lists are built in bulk in the
    layout ``add_arc`` gives, one arc at a time.  The residual is
    ``net.residual(headroom=prices.count_price)``, whose sentinel stays
    above the boosted cuts of stage 2; it sums the same finite
    capacities in the same order (the prices are finite).
    """
    n = g.n
    cover = prices.cover_price
    to = [0] * (2 * n)
    to[::2] = range(2, 2 + n)
    cap = [0.0] * (2 * n)
    cap[::2] = cover
    head = [list(range(0, 2 * n, 2)), []]
    head += [[a] for a in range(1, 2 * n, 2)]
    sink = head[1]
    paths = []
    finite = list(cover)  # the finite capacities, in arc order
    cnode = 1 + n
    for clique, price in zip(fam.cliques, prices.clique_price):
        cnode += 1
        if not price > 0.0:
            head.append([])
            continue
        finite.append(price)
        a = len(to)
        sink.append(a + 1)
        node = [a]
        head.append(node)
        to += (1, cnode)
        cap += (price, 0.0)
        b = a + 2
        for v in clique:
            to += (cnode, 2 + v)
            head[2 + v].append(b)
            node.append(b + 1)
            paths.append((2 * v, b, a))
            b += 2
        cap += [INF, 0.0] * len(clique)
    top = sentinel(sum(finite), prices.count_price)
    res = cap.copy()
    for _, b, _ in paths:
        res[b] = top
    fixings = [(2 + v, 1) for v in state.fixed_to_cut]
    fixings += [(2 + w, 2 + v) for v in state.fixed_to_keep for w in g.adj[v]]
    for u, v in fixings:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
    cap += [INF, 0.0] * len(fixings)
    res += [top, 0.0] * len(fixings)
    return FlowNetwork.from_arcs(head, to, cap), res, range(0, 2 * n, 2), paths


def greedy_flow(res: list[float], paths: list[tuple[int, int, int]]) -> None:
    """Push, in place, what each direct path in turn has left in ``res``.

    The result is a feasible flow, so a max-flow can start from it; the
    shortest augmenting paths then need fewer passes than from zero flow.
    """
    for a, b, c in paths:
        push = res[a] if res[a] < res[c] else res[c]
        if push > 0.0:
            res[a] -= push
            res[a ^ 1] += push
            res[b] -= push
            res[b ^ 1] += push
            res[c] -= push
            res[c ^ 1] += push


def cluster_violation(
    fam: CliqueFamily, prices: DualPrices, subset
) -> float:
    """The priced-out margin of one cluster, straight from the prices."""
    total = prices.count_price
    for price in map(prices.cover_price.__getitem__, subset):
        total += price
    return total - sum(map(prices.clique_price.__getitem__, fam.touched_by(subset)))


_less_two = (-2).__add__


def _vertices(side: list[int], n: int) -> tuple[int, ...]:
    """The vertices on a sorted source side: its nodes 2 .. n+1, less 2."""
    return tuple(map(_less_two, side[bisect_left(side, 2) : bisect_left(side, 2 + n)]))


def price(
    g: Graph,
    fam: CliqueFamily,
    prices: DualPrices,
    state: BranchState,
) -> PricingOutcome:
    """Two-stage search for violated cluster columns.

    Stage 1 takes one minimum cut.  When its minimal source side is a
    violated cluster, stage 1 returns it first, then the side's pieces
    (its connected components in g) when it is disconnected, then the
    maximal source side of the same cut and its pieces, each column once
    and only if it prices out.  Both sides reach the maximum violation.
    A clique meets at most one piece, so a piece keeps its own cover and
    clique prices and is admissible whenever its side is.

    An empty stage-1 minimal side is conclusive unless the count price is
    positive, in which case stage 2 sweeps one boosted cut per eligible
    vertex, each resumed from the stage-1 residual, and returns the
    minimal and maximal side of every boosted cut that prices out, most
    violated first, ties by subset.

    Two rules drop sweep flows whose sides are collected anyway.  Write b
    for the count price, R0 for the stage-1 residual and F0 for its flow
    value; every source arc is saturated in R0, as its minimal side is
    empty.  The boosted cut of u adds the flow delta_u to R0, for the
    value val_u = F0 + delta_u, and leaves the residual R_u with minimal
    side S_u.

    Rule B: a boosted flow of w stops at b - CUT_TOL and then collects
    nothing.  Reaching it saturates the boosted arc, so the minimal side
    is empty.  The maximal side X either holds w, and then its cut costs
    F0 + b without the boost, so it prices at exactly 0, or it does not,
    and then its cut costs F0: X is the stage-1 maximal side M0, which
    cannot hold w, as its cut would cost only F0.  Every vertex of M0 has
    M0 as its own maximal side, so M0 is collected anyway.

    Rule A: every other boosted cut is kept with its S_u.  Before w is
    swept, take the smallest kept S_u that holds w, close s->u in a copy
    of R_u and run a flow from w to u with the limit delta_u + CUT_TOL.
    When its value mu reaches it, w's cuts are u's and w is skipped.  Let
    X be a source side with w in w's boosted network:
    - with u, X costs what it costs in u's network, at least val_u, with
      equality exactly on u's minimum cuts;
    - without u, X costs F0 + delta_u - b plus R_u's residual capacity
      out of X, which holds b - delta_u on s->u and at least mu elsewhere,
      so at least F0 + mu > val_u;
    and a side without w costs at least F0 + b > val_u, since a nonempty
    S_u forces delta_u < b.  So w's minimum cuts are exactly u's, with
    the same minimal and maximal side.  S_u is closed in R_u, so the test
    flow stays inside it.  The inequality must be strict: degenerate
    master duals make ties mu = delta_u common, and at a tie a side
    without u can be a minimum cut of w's network, with other sides.

    An empty outcome certifies that no cluster column prices out.  The
    minimal side maximizes the violation over every admissible subset,
    the empty one included, whose margin is the count price.  So a
    minimal side that does not price out, or an empty one with a count
    price within the tolerance, leaves no column to find.  Otherwise the
    empty set is a maximizer: in the boosted cut of v every subset
    without v scores at most the count price and a violated cluster with
    v scores its violation plus the count price, so that cut finds a
    cluster with v at least as violated, and stage 2 misses none.
    """
    n = g.n
    found: dict[tuple[int, ...], float] = {}

    def collect(subset: tuple[int, ...]) -> None:
        if subset and subset not in found:
            violation = cluster_violation(fam, prices, subset)
            if violation > VIOLATION_TOL:
                assert state.allows_cluster(g, subset)
                found[subset] = violation

    net, base, source_arcs, paths = build_network(g, fam, prices, state)
    greedy_flow(base, paths)
    _, side = net.max_flow(0, 1, base)
    subset = _vertices(side, n)
    if subset:
        collect(subset)
        if not found:
            return PricingOutcome()
        largest = _vertices(net.maximal_source_side(1, base), n)
        # the sides often coincide, and one side's pieces are collected once
        for cut_side in (subset,) if largest == subset else (subset, largest):
            collect(cut_side)
            # a connected side is its own single piece, and found already
            for piece in connected_components(g, cut_side):
                collect(tuple(piece))
        columns = [PricedColumn(s, viol) for s, viol in found.items()]
        return PricingOutcome(columns, 1)
    if prices.count_price <= VIOLATION_TOL:
        return PricingOutcome()

    boost = prices.count_price
    # rule A's cut per vertex: the smallest kept S_u that holds it, the
    # first kept on ties, as (|S_u| in nodes, u, R_u with s->u closed, delta_u)
    holder: dict[int, tuple[int, int, list[float], float]] = {}
    for w in range(n):
        if w in state.fixed_to_cut:
            continue
        if w in holder:
            _, u, res_u, delta_u = holder[w]
            # rule A: more than delta_u from w to u means w's cuts are u's
            _, side = net.max_flow(2 + w, 2 + u, res_u.copy(), delta_u + CUT_TOL)
            if side is None:
                continue
        res = base.copy()
        res[source_arcs[w]] += boost
        # rule B: a saturated boosted arc leaves nothing new to collect
        delta, side = net.max_flow(0, 1, res, boost - CUT_TOL)
        if side is None:
            continue
        subset = _vertices(side, n)
        collect(subset)
        collect(_vertices(net.maximal_source_side(1, res), n))
        res[source_arcs[w]] = 0.0
        cut = (len(side), w, res, delta)
        for x in subset:
            if x not in holder or cut[0] < holder[x][0]:
                holder[x] = cut
    if not found:
        return PricingOutcome()
    ranked = sorted(found.items(), key=lambda item: (-item[1], item[0]))
    return PricingOutcome([PricedColumn(s, viol) for s, viol in ranked], 2)

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

Stage 1 takes one minimum cut.  When it comes back empty and the count
price is positive, stage 2 re-runs the cut once per eligible vertex with
the count price added to that vertex's source arc, which forces the
vertex into the cluster whenever any violated cluster contains it.
Raising one source arc keeps the stage-1 flow feasible, so each boosted
cut resumes from a copy of the stage-1 residual instead of starting
from zero flow; the network itself is never changed.  The minimal
min-cut source side does not depend on the flow a run starts from, so a
resumed cut finds the same cluster a cold one would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .flow import INF, FlowNetwork
from .graph import Graph
from .master import CliqueFamily, DualPrices

#: a cluster is worth adding when its violation exceeds this
VIOLATION_TOL = 1e-6
#: stage 2 returns at most this many clusters unless told otherwise
MAX_COLUMNS = 10


@dataclass(frozen=True)
class BranchState:
    """Branching decisions in force at a tree node."""

    fixed_to_cut: frozenset[int] = frozenset()
    fixed_to_keep: frozenset[int] = frozenset()

    def __post_init__(self):
        overlap = self.fixed_to_cut & self.fixed_to_keep
        if overlap:
            raise ValueError(f"contradictory fixings on {sorted(overlap)}")

    def with_fixing(self, vertex: int, value: int) -> "BranchState":
        if value == 1:
            return BranchState(
                self.fixed_to_cut | {vertex}, self.fixed_to_keep
            )
        return BranchState(self.fixed_to_cut, self.fixed_to_keep | {vertex})

    def allows_cluster(self, g: Graph, subset) -> bool:
        """Whether a cluster column may be active under these fixings."""
        sset = set(subset)
        if sset & self.fixed_to_cut:
            return False
        for w in self.fixed_to_keep:
            if w not in sset and not sset.isdisjoint(g.adj_set[w]):
                return False
        return True


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
) -> tuple[FlowNetwork, list[int]]:
    """The pricing network plus the source-arc id of every vertex.

    Node ids: source 0, sink 1, vertex v at 2+v, clique i at 2+n+i.
    """
    n = g.n
    net = FlowNetwork(2 + n + len(fam.cliques))
    source_arcs = []
    for v in range(n):
        source_arcs.append(net.add_arc(0, 2 + v, prices.cover_price[v]))
    for i, clique in enumerate(fam.cliques):
        price = prices.clique_price[i]
        if price <= 0.0:
            continue
        cnode = 2 + n + i
        net.add_arc(cnode, 1, price)
        for v in clique:
            net.add_arc(2 + v, cnode, INF)
    for v in state.fixed_to_cut:
        net.add_arc(2 + v, 1, INF)
    for v in state.fixed_to_keep:
        for w in g.adj[v]:
            net.add_arc(2 + w, 2 + v, INF)
    return net, source_arcs


def cluster_violation(
    fam: CliqueFamily, prices: DualPrices, subset
) -> float:
    """The priced-out margin of one cluster, straight from the prices."""
    touched: set[int] = set()
    total = prices.count_price
    for v in subset:
        total += prices.cover_price[v]
        touched.update(fam.member_of[v])
    return total - sum(prices.clique_price[i] for i in touched)


def _source_vertices(side: list[int], n: int) -> tuple[int, ...]:
    return tuple(u - 2 for u in side if 2 <= u < 2 + n)


def price(
    g: Graph,
    fam: CliqueFamily,
    prices: DualPrices,
    state: BranchState,
    *,
    max_columns: int = MAX_COLUMNS,
) -> PricingOutcome:
    """Two-stage search for violated cluster columns.

    Stage 1 returns the single best cluster when the plain minimum cut
    already carries one.  An empty stage-1 cluster is conclusive unless
    the count price is positive, in which case stage 2 sweeps one boosted
    cut per eligible vertex, each resumed from the stage-1 residual, and
    returns up to ``max_columns`` of its finds, most violated first.  An
    empty outcome certifies that no cluster column prices out.
    """
    n = g.n
    net, source_arcs = build_network(g, fam, prices, state)
    # the sentinel must stay above the boosted cuts of stage 2
    base = net.residual(headroom=prices.count_price)
    _, side = net.max_flow(0, 1, base)
    subset = _source_vertices(side, n)
    if subset:
        violation = cluster_violation(fam, prices, subset)
        if violation > VIOLATION_TOL:
            assert state.allows_cluster(g, subset)
            return PricingOutcome([PricedColumn(subset, violation)], 1)
        return PricingOutcome()
    if prices.count_price <= VIOLATION_TOL:
        return PricingOutcome()

    boost = prices.count_price
    found: dict[tuple[int, ...], float] = {}
    for v in range(n):
        if v in state.fixed_to_cut:
            continue
        res = base.copy()
        res[source_arcs[v]] += boost
        _, side = net.max_flow(0, 1, res)
        subset = _source_vertices(side, n)
        if not subset or subset in found:
            continue
        violation = cluster_violation(fam, prices, subset)
        if violation > VIOLATION_TOL:
            assert state.allows_cluster(g, subset)
            found[subset] = violation
    if not found:
        return PricingOutcome()
    ranked = sorted(found.items(), key=lambda item: (-item[1], item[0]))
    columns = [PricedColumn(s, viol) for s, viol in ranked[:max_columns]]
    return PricingOutcome(columns, 2)

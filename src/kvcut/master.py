"""Restricted master problem over cluster columns.

The master LP selects nonnegative weights for "cluster" columns (vertex
subsets that may survive deletion as one of the k required pairwise
non-adjacent groups) together with per-vertex deletion variables.  Rows:

* one *count* row      -- at least k clusters are selected,
* one *cover* row per vertex -- every vertex is deleted or covered by a
                          selected cluster,
* one row per clique of an edge-covering clique family -- at most one
  selected cluster may touch any clique; since every edge lies inside
  some family clique, integral solutions cannot pick two clusters joined
  by an edge,
* a *connectivity* row forcing the deletion cost up to the weighted
  vertex connectivity of the graph, for k up to ``CONNECTIVITY_MAX_K``
  and a graph some vertex set can break.

Deletion variables are binary in the full model; the LP relaxation keeps
them without an upper bound on purpose (the cover rows already cap them
at optimality, and the pricing theory relies on this shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from . import lp
from .flow import ComponentResults, weighted_vertex_connectivity
from .graph import Graph
from .instance import Instance

COVER = "cover"
PARTITION = "partition"
EDGES = "edges"
FAMILY_MODES = (COVER, PARTITION, EDGES)

#: duals with magnitude below this are treated as exactly zero
DUAL_ZERO_TOL = 1e-9

#: the connectivity row applies only up to this many parts
CONNECTIVITY_MAX_K = 15

#: an artificial above this at CG convergence certifies infeasibility
ARTIFICIAL_TOL = 1e-7


# ---------------------------------------------------------------------------
# clique families


@dataclass
class CliqueFamily:
    """An ordered, edge-covering family of cliques.

    ``member_of[v]`` lists the indices of the cliques containing ``v``;
    it is the index the pricing network and ``touched_by`` both use.
    """

    cliques: list[tuple[int, ...]]
    member_of: list[list[int]]

    @classmethod
    def from_cliques(cls, n: int, cliques: Sequence[Sequence[int]]) -> "CliqueFamily":
        member_of: list[list[int]] = [[] for _ in range(n)]
        stored = []
        for i, cl in enumerate(cliques):
            tup = tuple(sorted(cl))
            stored.append(tup)
            for v in tup:
                member_of[v].append(i)
        return cls(stored, member_of)

    def touched_by(self, subset: Iterable[int]) -> set[int]:
        """Indices of family cliques meeting the subset, added vertex by
        vertex: the set iterates in one order for one subset."""
        return set(chain.from_iterable(map(self.member_of.__getitem__, subset)))


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_clique_family(g: Graph, mode: str = COVER) -> CliqueFamily:
    """Greedy edge-covering clique family.

    ``cover``: scan edges in input order; every still-uncovered edge seeds
    a clique that is grown maximal by scanning vertices in index order.
    ``partition``: same scan, but a vertex may join only along uncovered
    edges, so every edge ends up in exactly one clique.  A vertex that
    joins the clique of edge uv is adjacent to u and v, so the scan reads
    only their common neighbours, in ascending order.
    ``edges``: the edge set itself, one 2-clique per edge.

    Vertices no edge reaches (degree zero) get a singleton clique so that
    every vertex is capped by some clique row.  Without the cap, a cluster
    made of such vertices could take unbounded weight and satisfy the
    cluster-count row for free, which breaks the relaxation.
    """
    if mode not in FAMILY_MODES:
        raise ValueError(f"unknown clique family mode {mode!r}")
    isolated = [(v,) for v in range(g.n) if g.degree(v) == 0]
    if mode == EDGES:
        return CliqueFamily.from_cliques(
            g.n, [_edge_key(u, v) for u, v in g.edges] + isolated
        )
    covered: set[tuple[int, int]] = set()
    cliques: list[tuple[int, ...]] = []
    for u, v in g.edges:
        if _edge_key(u, v) in covered:
            continue
        members = {u, v}
        for w in sorted(g.adj_set[u] & g.adj_set[v]):
            if mode == COVER:
                ok = all(g.has_edge(w, x) for x in members)
            else:
                ok = all(
                    g.has_edge(w, x) and _edge_key(w, x) not in covered
                    for x in members
                )
            if ok:
                members.add(w)
        clique = tuple(sorted(members))
        cliques.append(clique)
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                covered.add((clique[i], clique[j]))
    return CliqueFamily.from_cliques(g.n, cliques + isolated)


# ---------------------------------------------------------------------------
# the restricted master itself


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
            return BranchState(self.fixed_to_cut | {vertex}, self.fixed_to_keep)
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
class Column:
    """One cluster column: its vertices and its LP id."""

    subset: tuple[int, ...]
    var: int


@dataclass
class DualPrices:
    """Row prices the pricing network is built from.

    ``count_price`` belongs to the cluster-count row, ``cover_price[v]``
    to vertex v's cover row, and ``clique_price[i]`` to family clique i
    (stored with its sign flipped).  All values are clamped nonnegative.
    """

    count_price: float
    cover_price: list[float]
    clique_price: list[float]


class Rmp:
    """Mutable restricted master: LP model plus the column pool.

    One instance per solve; the branch-and-price engine restricts it in
    place to each tree node's fixings.  The connectivity row is left out
    when ``connectivity_bound`` is False; it stores its per-component
    results in ``connectivity`` when given, so the caller can share them.
    """

    def __init__(
        self,
        inst: Instance,
        fam: CliqueFamily,
        *,
        connectivity_bound: bool = True,
        connectivity: Optional[ComponentResults] = None,
    ):
        g = self.g = inst.graph
        self.k = inst.k
        self.fam = fam
        self.model = lp.LinearProgram()

        self.count_row = self.model.add_row(lp.GREATER, float(inst.k), [])
        # each family of rows takes consecutive ids, so its duals are a slice
        self.cover_rows = range(self.count_row + 1, self.count_row + 1 + g.n)
        for _ in self.cover_rows:
            self.model.add_row(lp.GREATER, 1.0, [])
        self.clique_rows = range(
            self.cover_rows.stop, self.cover_rows.stop + len(fam.cliques)
        )
        for _ in self.clique_rows:
            self.model.add_row(lp.LESS, 1.0, [])
        self.x_vars = [
            self.model.add_variable(
                g.costs[v], 0.0, lp.INF, [(self.cover_rows[v], 1.0)]
            )
            for v in range(g.n)
        ]

        if connectivity_bound and inst.k <= CONNECTIVITY_MAX_K:
            conn = weighted_vertex_connectivity(g, results=connectivity)
            if conn is not None:
                self.model.add_row(
                    lp.GREATER,
                    conn.cost,
                    [(self.x_vars[v], g.costs[v]) for v in range(g.n)],
                )

        # Big-M columns keep every node LP feasible, so that genuine node
        # infeasibility shows up as a positive artificial level instead of
        # a solver failure.  The count row needs one because singleton
        # clusters can all be deactivated by cut-fixings; each cover row
        # needs one because a keep-fixed vertex whose pooled clusters are
        # all deactivated by *other* keep-fixings would otherwise leave no
        # way to satisfy its row (x is bounded to 0 there).  M strictly
        # dominates any real cost, so positive artificials at convergence
        # certify infeasibility.
        self.big_m = 10.0 * g.total_cost() + 1.0
        self.artificials = [
            self.model.add_variable(self.big_m, 0.0, lp.INF, [(row, 1.0)])
            for row in range(self.count_row, self.cover_rows.stop)
        ]

        self.columns: list[Column] = []
        self._pool: dict[tuple[int, ...], int] = {}
        for v in range(g.n):
            self.add_column((v,))

    # -- column management --------------------------------------------------

    def add_column(self, subset: Sequence[int]) -> bool:
        """Add a cluster column; returns False when it is already pooled."""
        key = tuple(sorted(set(subset)))
        if not key:
            raise ValueError("empty cluster")
        if key in self._pool:
            return False
        entries = [(self.count_row, 1.0)]
        entries += [(self.cover_rows[v], 1.0) for v in key]
        entries += [(self.clique_rows[i], 1.0) for i in self.fam.touched_by(key)]
        var = self.model.add_variable(0.0, 0.0, lp.INF, entries)
        self._pool[key] = len(self.columns)
        self.columns.append(Column(key, var))
        return True

    def column_values(self, result: lp.LpResult) -> list[float]:
        return [float(result.x[col.var]) for col in self.columns]

    # -- per-node state -------------------------------------------------------

    def restrict(self, state: BranchState):
        """Restrict the master to a tree node's fixings.

        Pins x_v to 1 or 0 where the state fixes v and releases it
        elsewhere, and keeps active exactly the pooled columns the state
        allows.  ``BranchState()`` releases everything.
        """
        for v, var in enumerate(self.x_vars):
            if v in state.fixed_to_cut:
                self.model.set_bounds(var, 1.0, 1.0)
            elif v in state.fixed_to_keep:
                self.model.set_bounds(var, 0.0, 0.0)
            else:
                self.model.set_bounds(var, 0.0, lp.INF)
        for col in self.columns:
            active = state.allows_cluster(self.g, col.subset)
            self.model.set_bounds(col.var, 0.0, lp.INF if active else 0.0)

    # -- results ----------------------------------------------------------------

    def extract_duals(self, result: lp.LpResult) -> DualPrices:
        """Row prices for pricing; tiny noise zeroed, negatives clamped.

        A price is kept as it is when it is at least DUAL_ZERO_TOL and is
        0.0 otherwise, nan and -0.0 included.
        """
        if result.status != lp.OPTIMAL:
            raise ValueError(f"duals need an optimal LP, got {result.status}")
        y = result.duals
        count = float(y[self.count_row])
        cover = y[self.cover_rows.start : self.cover_rows.stop]
        clique = -y[self.clique_rows.start : self.clique_rows.stop]
        return DualPrices(
            count_price=count if count >= DUAL_ZERO_TOL else 0.0,
            cover_price=np.where(cover >= DUAL_ZERO_TOL, cover, 0.0).tolist(),
            clique_price=np.where(clique >= DUAL_ZERO_TOL, clique, 0.0).tolist(),
        )

    def infeasible(self, result: lp.LpResult) -> bool:
        """Whether a converged LP still needs an artificial: no solution exists."""
        return max(float(result.x[a]) for a in self.artificials) > ARTIFICIAL_TOL


#: the name the engine and the bound lab call; the benchmark's tracer wraps it
init_rmp = Rmp

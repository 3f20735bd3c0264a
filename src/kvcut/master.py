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
* optionally a *connectivity* row forcing the deletion cost up to the
  weighted vertex connectivity of the graph.

Deletion variables are binary in the full model; the LP relaxation keeps
them without an upper bound on purpose (the cover rows already cap them
at optimality, and the pricing theory relies on this shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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

#: the connectivity row applies automatically only up to this many parts
CONNECTIVITY_MAX_K = 15

#: an artificial above this at CG convergence certifies infeasibility
ARTIFICIAL_TOL = 1e-7


# ---------------------------------------------------------------------------
# clique families


@dataclass
class CliqueFamily:
    """An ordered, edge-covering family of cliques.

    ``member_of[v]`` lists the indices of the cliques containing ``v``;
    it is the index the pricing network and the column builder both use.
    """

    mode: str
    cliques: list[tuple[int, ...]]
    member_of: list[list[int]]

    @classmethod
    def from_cliques(
        cls, n: int, mode: str, cliques: Sequence[Sequence[int]]
    ) -> "CliqueFamily":
        member_of: list[list[int]] = [[] for _ in range(n)]
        stored = []
        for i, cl in enumerate(cliques):
            tup = tuple(sorted(cl))
            stored.append(tup)
            for v in tup:
                member_of[v].append(i)
        return cls(mode, stored, member_of)

    def touched_by(self, subset: Sequence[int]) -> list[int]:
        """Indices of family cliques meeting the subset."""
        seen: set[int] = set()
        for v in subset:
            seen.update(self.member_of[v])
        return sorted(seen)


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_clique_family(g: Graph, mode: str = COVER) -> CliqueFamily:
    """Greedy edge-covering clique family.

    ``cover``: scan edges in input order; every still-uncovered edge seeds
    a clique that is grown maximal by scanning vertices in index order.
    ``partition``: same scan, but a vertex may join only along uncovered
    edges, so every edge ends up in exactly one clique.
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
            g.n, mode, [_edge_key(u, v) for u, v in g.edges] + isolated
        )
    covered: set[tuple[int, int]] = set()
    cliques: list[tuple[int, ...]] = []
    for u, v in g.edges:
        if _edge_key(u, v) in covered:
            continue
        members = {u, v}
        for w in range(g.n):
            if w in members:
                continue
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
    return CliqueFamily.from_cliques(g.n, mode, cliques + isolated)


# ---------------------------------------------------------------------------
# the restricted master itself


@dataclass
class Column:
    """One cluster column: its vertices, the cliques it touches, its LP id."""

    subset: tuple[int, ...]
    touched: tuple[int, ...]
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

    One instance per solve; the branch-and-price engine mutates variable
    bounds in place when it moves between tree nodes.  The connectivity
    row stores its per-component results in ``connectivity`` when given,
    so the caller can share them.
    """

    def __init__(
        self,
        inst: Instance,
        fam: CliqueFamily,
        *,
        connectivity_cut: str = "auto",
        connectivity: Optional[ComponentResults] = None,
    ):
        g = inst.graph
        self.fam = fam
        self.model = lp.LinearProgram()

        self.count_row = self.model.add_row(lp.GREATER, float(inst.k), [])
        self.cover_rows = [
            self.model.add_row(lp.GREATER, 1.0, []) for _ in range(g.n)
        ]
        self.clique_rows = [
            self.model.add_row(lp.LESS, 1.0, []) for _ in fam.cliques
        ]
        self.x_vars = [
            self.model.add_variable(
                g.costs[v], 0.0, lp.INF, [(self.cover_rows[v], 1.0)]
            )
            for v in range(g.n)
        ]

        self.connectivity_row: Optional[int] = None
        self.connectivity_rhs: Optional[float] = None
        if connectivity_cut not in ("auto", "on", "off"):
            raise ValueError(f"bad connectivity_cut {connectivity_cut!r}")
        want_row = connectivity_cut == "on" or (
            connectivity_cut == "auto" and inst.k <= CONNECTIVITY_MAX_K
        )
        if want_row:
            conn = weighted_vertex_connectivity(g, results=connectivity)
            if not conn.unbreakable:
                self.connectivity_rhs = conn.cost
                self.connectivity_row = self.model.add_row(
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
            self.model.add_variable(self.big_m, 0.0, lp.INF, [(self.count_row, 1.0)])
        ]
        self.artificials += [
            self.model.add_variable(
                self.big_m, 0.0, lp.INF, [(self.cover_rows[v], 1.0)]
            )
            for v in range(g.n)
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
        touched = self.fam.touched_by(key)
        entries = [(self.count_row, 1.0)]
        entries += [(self.cover_rows[v], 1.0) for v in key]
        entries += [(self.clique_rows[i], 1.0) for i in touched]
        var = self.model.add_variable(0.0, 0.0, lp.INF, entries)
        self._pool[key] = len(self.columns)
        self.columns.append(Column(key, tuple(touched), var))
        return True

    def column_values(self, result: lp.LpResult) -> list[float]:
        return [float(result.x[col.var]) for col in self.columns]

    # -- per-node state -------------------------------------------------------

    def set_vertex_fixed(self, v: int, value: Optional[int]):
        """Pin x_v for the current node: 1, 0, or None to release."""
        if value is None:
            self.model.set_bounds(self.x_vars[v], 0.0, lp.INF)
        elif value == 1:
            self.model.set_bounds(self.x_vars[v], 1.0, 1.0)
        elif value == 0:
            self.model.set_bounds(self.x_vars[v], 0.0, 0.0)
        else:
            raise ValueError(f"bad fixing {value!r}")

    def set_column_active(self, index: int, active: bool):
        var = self.columns[index].var
        self.model.set_bounds(var, 0.0, lp.INF if active else 0.0)

    # -- results ----------------------------------------------------------------

    def extract_duals(self, result: lp.LpResult) -> DualPrices:
        """Row prices for pricing; tiny noise zeroed, negatives clamped."""
        if result.status != lp.OPTIMAL:
            raise ValueError(f"duals need an optimal LP, got {result.status}")

        def clean(value: float) -> float:
            if abs(value) < DUAL_ZERO_TOL:
                return 0.0
            return max(0.0, value)

        y = result.duals
        return DualPrices(
            count_price=clean(float(y[self.count_row])),
            cover_price=[clean(float(y[r])) for r in self.cover_rows],
            clique_price=[clean(-float(y[r])) for r in self.clique_rows],
        )

    def infeasible(self, result: lp.LpResult) -> bool:
        """Whether a converged LP still needs an artificial: no solution exists."""
        return max(float(result.x[a]) for a in self.artificials) > ARTIFICIAL_TOL


def init_rmp(
    inst: Instance,
    fam: CliqueFamily,
    *,
    connectivity_cut: str = "auto",
    connectivity: Optional[ComponentResults] = None,
) -> Rmp:
    return Rmp(
        inst, fam, connectivity_cut=connectivity_cut, connectivity=connectivity
    )


"""Branch-and-price driver for minimum-cost k-vertex cuts.

Per tree node the engine runs column generation to convergence (master
LP solve, price, add, repeat), reads the node's dual bound off the final
LP, and either prunes, offers an integral deletion vector as a new
incumbent, or rounds the LP to a cut it offers and then branches on a
fractional deletion variable chosen by pseudocosts: the bound gains the
tree's own child nodes have recorded.  ``_Search._offer`` alone re-checks
and costs a cut on the graph and keeps the incumbent, whether the cut is
a trivial instance's empty one, a heuristic's or an integral leaf's.
Below the root, column generation stops early once a Lagrangian bound
prunes the node.

A child node starts from the parent's optimal basis.  Its new bound
leaves it primal infeasible but dual feasible, so the LP re-optimises it
with a short dual simplex instead of a cold phase 1.

One node is one ``column_generation`` call.  It applies both views of
the node's fixings: it restricts the master (pinned deletion variables,
pooled columns that contradict the fixings deactivated) and prices with
the fixings as extra network arcs.  Both views are recomputed from the
node's own state, so moving around the tree needs no undo bookkeeping.
It alone decides that a node is dropped: big-M artificial columns keep
every node LP feasible except against the connectivity row, so a node
whose master LP is infeasible, or whose converged LP still carries a
positive artificial, is provably infeasible, and below the root a
Lagrangian bound may prune it.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import lp
from .flow import ComponentResults, weighted_vertex_connectivity
from .graph import (
    Graph, automorphism_generators, check_deadline, components_without, is_k_vertex_cut
)
from .instance import INFEASIBLE, TRIVIAL, Instance, screen
from .master import BranchState, Rmp, build_clique_family, init_rmp
from .pricing import price
from .symmetry import propagate

log = logging.getLogger(__name__)

OPTIMAL = "Optimal"
INFEASIBLE_STATUS = "Infeasible"
TIME_LIMIT = "TimeLimit"

#: x-values this close to an integer count as integral
INT_TOL = 1e-6
BOUND_EPS = 1e-6


class EngineError(RuntimeError):
    """An internal solver failure that should never happen on valid input."""


@dataclass
class SolveOptions:
    time_limit: Optional[float] = None


@dataclass
class Incumbent:
    cut: tuple[int, ...]
    objective: float
    components: int


@dataclass
class SolveReport:
    instance: str
    n: int
    m: int
    k: int
    status: str
    objective: Optional[float] = None
    cut: Optional[tuple[int, ...]] = None
    num_components: Optional[int] = None
    root_lp_bound: Optional[float] = None
    best_bound: Optional[float] = None
    gap_percent: Optional[float] = None
    nodes: int = 0
    max_depth: int = 0
    cols_total: int = 0
    cols_root: int = 0
    pricing_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class BnpNode:
    state: BranchState  # branching decisions only; symmetry re-derives the rest
    bound: float  # the parent's LP bound; -inf at the root
    basis: Optional[lp.Basis]  # the parent's optimal basis, the warm start
    seq: tuple[int, ...]  # branch vertices from the root; depth is len(seq)
    frac: float = 0.0  # fractional part of seq[-1] in the parent's LP


class _Pseudocosts:
    """Average LP gain per unit of bound movement, per vertex and direction."""

    def __init__(self):
        self.stats: dict[tuple[int, int], list[float]] = {}  # [sum, count]

    def record(self, vertex: int, direction: int, per_unit: float):
        entry = self.stats.setdefault((vertex, direction), [0.0, 0.0])
        entry[0] += per_unit
        entry[1] += 1.0

    def _mean(self, vertex: int, direction: int) -> float:
        total, count = self.stats.get((vertex, direction), (0.0, 0.0))
        return total / count if count else 0.0

    def estimate(self, vertex: int, frac: float) -> tuple[float, float]:
        """Expected (down, up) gains; 0 for a direction never observed."""
        return self._mean(vertex, 0) * frac, self._mean(vertex, 1) * (1.0 - frac)


def disconnection_heuristic(
    inst: Instance, connectivity: Optional[ComponentResults] = None
) -> Optional[tuple[int, ...]]:
    """Greedy warm start: repeatedly split the cheapest breakable component.

    Each round computes, per surviving component, the cheapest vertex set
    whose removal disconnects it, and removes the cheapest such set over
    all components (ties to the component with the lowest vertex index).
    Returns the removed vertices, sorted, once at least k components
    remain.  Fails — returns None — exactly when too few components remain
    and every one of them is a clique.  Per-component results are read from
    and stored in ``connectivity`` (a fresh dict when not given), so a
    component that survives a round unchanged is not computed again.
    """
    g, k = inst.graph, inst.k
    if connectivity is None:
        connectivity = {}
    removed: set[int] = set()
    while True:
        comps = components_without(g, removed)
        if len(comps) >= k:
            return tuple(sorted(removed))
        conn = weighted_vertex_connectivity(g, comps, connectivity)
        if conn is None:
            return None
        removed.update(conn.vertices)


def rounding_heuristic(
    g: Graph, k: int, state: BranchState, xvals: Sequence[float]
) -> Optional[tuple[int, ...]]:
    """Round a node's LP deletion vector to a k-vertex cut, or return None.

    Deletes the cut-fixed vertices, then the vertices that are not
    keep-fixed in order of decreasing x_v (ties to the cheaper, then to the
    lower index) until at least k components remain; it gives up when the
    next x_v is 0 (within INT_TOL).  Then it restores, dearest first,
    every such deletion the cut does not need.  Returns the cut's
    vertices, sorted; the cut keeps the node's fixings.
    """
    removed = set(state.fixed_to_cut)
    order = sorted(
        (
            v
            for v in range(g.n)
            if v not in state.fixed_to_cut and v not in state.fixed_to_keep
        ),
        key=lambda v: (-xvals[v], g.costs[v], v),
    )
    deleted = []
    for v in order:
        if is_k_vertex_cut(g, removed, k):
            break
        if xvals[v] <= INT_TOL:
            return None
        removed.add(v)
        deleted.append(v)
    if not is_k_vertex_cut(g, removed, k):
        return None
    for v in sorted(deleted, key=lambda v: (-g.costs[v], v)):
        removed.discard(v)
        if not is_k_vertex_cut(g, removed, k):
            removed.add(v)
    return tuple(sorted(removed))


@dataclass
class CgWork:
    """Master pivots and pricing seconds, summed over the loops given it."""

    pivots: int = 0
    pricing_seconds: float = 0.0


def column_generation(
    rmp: Rmp,
    state: BranchState,
    basis: Optional[lp.Basis] = None,
    *,
    work: CgWork,
    deadline: Optional[float] = None,
    prune: Optional[Callable[[float], bool]] = None,
) -> Optional[lp.LpResult]:
    """One tree node: restrict the master to ``state``, then solve it,
    price on ``rmp.g`` under the same fixings, add columns; repeat until
    none is added.

    Returns the converged LP, or None when the node can be dropped: the
    master LP is infeasible (the connectivity row has no artificial),
    ``prune`` accepts a Lagrangian bound, or the converged LP still needs
    an artificial, so no solution keeps the fixings.  Raises
    ``EngineError`` on any other LP status, a singular basis included,
    and ``TimeoutError`` before a master solve past the deadline, with
    ``work`` counted so far.

    The Lagrangian bound (Lübbecke & Desrosiers 2005), offered after
    every stage-2 pricing call.  Let y_0 be the count price and v the
    smaller of y_0 and the largest violation among the call's columns;
    v > VIOLATION_TOL, as stage 2 runs only for such a y_0 and keeps only
    such columns.  Then LB = z_RMP - k * v bounds the node from below.
    Stage 2 runs once the stage-1 cut has proved that no cluster beats
    y_0, and it misses no cluster more violated than VIOLATION_TOL, so in
    exact arithmetic its largest violation is every cluster's largest
    and at most y_0; what rounding leaves is below the VIOLATION_TOL that
    convergence already accepts.  Lower y_0 by v and keep every other
    dual.  The count row is a >= row and y_0 - v >= 0, so every dual
    keeps its sign.  Each cluster has coefficient 1 in the count row, so
    its reduced cost rises by v and none prices out.  The count row's
    artificial gains v too, and no other column meets the row.  A
    cluster column sits at a zero bound, so its bound term in the dual
    objective stays 0; every other column keeps its reduced cost and
    bound term.  The lowered duals are feasible for the node's full
    master, and their objective is z_RMP less the change in the count
    row's term k * y_0, k * v.  Weak duality gives LB.  The root passes
    no ``prune``, so its LP always converges and its bound is the
    converged value.
    """
    rmp.restrict(state)
    while True:
        check_deadline(deadline)
        res = rmp.model.solve(basis)
        work.pivots += res.iterations
        if res.status == lp.INFEASIBLE:
            log.debug("master LP infeasible")
            return None
        if res.status != lp.OPTIMAL:
            raise EngineError(f"master LP ended with {res.status}")
        basis = res.basis
        prices = rmp.extract_duals(res)
        t0 = time.monotonic()
        outcome = price(rmp.g, rmp.fam, prices, state)
        work.pricing_seconds += time.monotonic() - t0
        if prune is not None and outcome.stage == 2:
            v = min(max(col.violation for col in outcome.columns), prices.count_price)
            if prune(res.objective - rmp.k * v):
                log.debug("Lagrangian bound prunes the node")
                return None
        if not sum(rmp.add_column(col.subset) for col in outcome.columns):
            if outcome.columns:
                # every violated cluster is pooled and active, so its
                # margin is below the simplex tolerance; treat CG as converged
                log.debug("pricing returned only pooled columns")
            if rmp.infeasible(res):
                log.debug("converged master needs an artificial")
                return None
            return res


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> SolveReport:
    return _Search(inst, opts or SolveOptions()).run()


class _Search:
    def __init__(self, inst: Instance, opts: SolveOptions):
        self.inst = inst
        self.g = inst.graph
        self.start = time.monotonic()
        self.deadline = (
            None if opts.time_limit is None else self.start + opts.time_limit
        )
        self.work = CgWork()
        self.integral_costs = all(
            float(c).is_integer() for c in self.g.costs
        )
        self.incumbent: Optional[Incumbent] = None
        self.rmp: Optional[Rmp] = None
        self.root_bound: Optional[float] = None
        self.cols_root = 0
        self.nodes_processed = 0
        self.max_depth = 0
        self.heap: list[tuple[float, int, int, BnpNode]] = []
        self.pushed = 0  # nodes created, the heap's last tie-break
        self.inflight_bound: Optional[float] = None
        self.pseudo = _Pseudocosts()
        self.generators: list[list[int]] = []

    # -- plumbing -------------------------------------------------------------

    def _report(self, status: str) -> SolveReport:
        rep = SolveReport(
            instance=self.g.name,
            n=self.g.n,
            m=self.g.m,
            k=self.inst.k,
            status=status,
            nodes=self.nodes_processed,
            max_depth=self.max_depth,
            cols_total=len(self.rmp.columns) if self.rmp else 0,
            cols_root=self.cols_root,
            root_lp_bound=self.root_bound,
            pricing_seconds=self.work.pricing_seconds,
            total_seconds=time.monotonic() - self.start,
        )
        gap_from = None  # the bound the gap is measured from
        if status == OPTIMAL:
            rep.best_bound = self.incumbent.objective
            gap_from = self.root_bound
        elif status == TIME_LIMIT:
            # never empty: the root is pushed before the first deadline
            # check.  Costs are nonnegative, so 0 is a bound too, the only
            # one before the root's LP converges.
            bounds = [entry[0] for entry in self.heap]
            if self.inflight_bound is not None:
                bounds.append(self.inflight_bound)
            rep.best_bound = gap_from = max(0.0, min(bounds))
        if self.incumbent is not None:
            rep.objective = self.incumbent.objective
            rep.cut = self.incumbent.cut
            rep.num_components = self.incumbent.components
            if rep.objective <= 1e-9:
                rep.gap_percent = 0.0
            elif gap_from is not None:
                # An LP bound can drift a few ulps above an integer
                # optimum; a negative gap is impossible, so clamp.
                rep.gap_percent = max(
                    0.0, 100.0 * (rep.objective - gap_from) / rep.objective
                )
        return rep

    def _push(self, node: BnpNode):
        # best bound first, then deepest, then oldest
        heapq.heappush(self.heap, (node.bound, -len(node.seq), self.pushed, node))
        self.pushed += 1

    def _offer(self, cut: Optional[tuple[int, ...]]) -> bool:
        """Whether a sorted vertex tuple is a k-vertex cut; keep it if cheaper.

        None, from a heuristic that found nothing, is no cut.  A cut is
        costed from the graph and becomes the incumbent when it beats the
        current one by more than 1e-9.
        """
        if cut is None:
            return False
        components = len(components_without(self.g, cut))
        if components < self.inst.k:
            return False
        cost = sum((self.g.costs[v] for v in cut), 0.0)
        if self.incumbent is None or cost < self.incumbent.objective - 1e-9:
            self.incumbent = Incumbent(cut, cost, components)
        return True

    def _prunable(self, bound: float) -> bool:
        if self.incumbent is None:
            return False
        limit = self.incumbent.objective
        if self.integral_costs:
            return bound > limit - 1.0 + BOUND_EPS
        return bound >= limit - BOUND_EPS

    # -- main loop ------------------------------------------------------------

    def run(self) -> SolveReport:
        screened = screen(self.inst)
        if screened == TRIVIAL:
            self._offer(())
            return self._report(OPTIMAL)
        if screened == INFEASIBLE:
            return self._report(INFEASIBLE_STATUS)

        fam = build_clique_family(self.g)
        # the master's connectivity row and the heuristic's first round
        # need the same per-component cuts; compute each once
        connectivity: ComponentResults = {}
        self.rmp = init_rmp(self.inst, fam, connectivity=connectivity)
        self._offer(disconnection_heuristic(self.inst, connectivity))

        self._push(BnpNode(BranchState(), -math.inf, None, ()))
        try:
            self.generators = automorphism_generators(self.g, self.deadline)
            while self.heap:
                check_deadline(self.deadline)
                bound, _, _, node = heapq.heappop(self.heap)
                if self._prunable(bound):
                    continue
                self.inflight_bound = bound
                self.nodes_processed += 1
                self.max_depth = max(self.max_depth, len(node.seq))
                self._process(node)
                self.inflight_bound = None
        except TimeoutError:
            return self._report(TIME_LIMIT)
        status = OPTIMAL if self.incumbent is not None else INFEASIBLE_STATUS
        return self._report(status)

    # -- node processing --------------------------------------------------------

    def _effective_state(self, node: BnpNode) -> Optional[BranchState]:
        """Branch fixings plus symmetry-forced fixings; None = dominated."""
        if not self.generators or not node.seq:
            return node.state
        result = propagate(self.generators, node.seq, node.state)
        return None if result.conflict else result.state

    def _process(self, node: BnpNode):
        state = self._effective_state(node)
        if state is None:
            return  # dominated by a symmetric sibling
        res = column_generation(
            self.rmp, state, node.basis, work=self.work,
            deadline=self.deadline, prune=self._prunable if node.seq else None,
        )
        if res is None:
            return  # infeasible under these fixings, or pruned
        bound = res.objective
        if not node.seq:
            self.root_bound = bound
            self.cols_root = len(self.rmp.columns)
        elif math.isfinite(node.bound):
            self._record_branch_gain(node, bound)
        if bound < node.bound - BOUND_EPS:
            log.debug("node %s bound %.9g below parent bound %.9g", node.seq, bound, node.bound)
        if self._prunable(bound):
            return
        xvals = [float(res.x[self.rmp.x_vars[v]]) for v in range(self.g.n)]
        fractional = [
            v
            for v in range(self.g.n)
            if abs(xvals[v] - round(xvals[v])) > INT_TOL
        ]
        if not fractional:
            self._integral_leaf(node, state, res, xvals, bound)
            return
        self._offer(rounding_heuristic(self.g, self.inst.k, state, xvals))
        if self._prunable(bound):
            return
        var = self._select_branch(fractional, xvals)
        self._branch(node, var, xvals[var], res.basis, bound)

    def _record_branch_gain(self, node: BnpNode, bound: float):
        gain = max(0.0, bound - node.bound)
        var = node.seq[-1]
        direction = int(var in node.state.fixed_to_cut)  # 1: the deletion child
        share = 1.0 - node.frac if direction else node.frac
        if share > INT_TOL:
            self.pseudo.record(var, direction, gain / share)

    def _integral_leaf(
        self,
        node: BnpNode,
        state: BranchState,
        res: lp.LpResult,
        xvals: list[float],
        bound: float,
    ):
        if self._offer(tuple(v for v in range(self.g.n) if xvals[v] > 0.5)):
            return
        # An integral x can still fail verification: a variable may sit at
        # 2+ (the connectivity row has no reason not to), or the count row
        # may be inflated by clusters living entirely inside the deleted
        # set (possible because cover rows go slack once x_v = 1).  Either
        # way the point is not a model solution, so branch it away: the
        # keep child restores the vertex, and the cut child deactivates
        # every cluster containing it, so the point is infeasible on both
        # sides while no true solution is lost.
        candidates = set(
            v
            for v in range(self.g.n)
            if xvals[v] > 1.5
            and v not in state.fixed_to_cut
            and v not in state.fixed_to_keep
        )
        for subset, var in self.rmp.columns.items():
            if res.x[var] > 1e-9:
                candidates.update(
                    v
                    for v in subset
                    if xvals[v] > 0.5
                    and v not in state.fixed_to_cut
                    and v not in state.fixed_to_keep
                )
        if not candidates:
            raise EngineError(
                "integral deletion vector failed component verification"
            )
        var = min(candidates)
        self._branch(node, var, xvals[var], res.basis, bound)

    # -- branching ----------------------------------------------------------------

    def _select_branch(self, candidates: list[int], xvals: list[float]) -> int:
        """The candidate with the largest product of pseudocost gains."""
        best_var = candidates[0]
        best_score = -1.0
        for v in candidates:
            frac = xvals[v] - math.floor(xvals[v])
            gain_down, gain_up = self.pseudo.estimate(v, frac)
            score = max(gain_down, 1e-6) * max(gain_up, 1e-6)
            if score > best_score:  # ties keep the lowest vertex index
                best_score = score
                best_var = v
        return best_var

    def _branch(
        self,
        node: BnpNode,
        var: int,
        value: float,
        basis: Optional[lp.Basis],
        bound: float,
    ):
        frac = value - math.floor(value)
        seq = node.seq + (var,)
        for direction in (1, 0):  # explore the deletion side first on ties
            state = node.state.with_fixing(var, direction)
            self._push(BnpNode(state, bound, basis, seq, frac))

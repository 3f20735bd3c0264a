"""Branch-and-price driver for minimum-cost k-vertex cuts.

Per tree node the engine runs column generation to convergence (master
LP solve, price, add, repeat), reads the node's dual bound off the final
LP, and either prunes, accepts an integral deletion vector as a new
incumbent (after re-verifying the component count directly on the
graph), or branches on a fractional deletion variable chosen by a
reliability-style pseudocost rule with strong-branching probes.

A child node and a probe both start from the parent's optimal basis.
Their new bounds leave it primal infeasible but dual feasible, so the LP
re-optimises it with a short dual simplex instead of a cold phase 1; a
probe stopped by its pivot cap still scores the dual bound it reached.

Big-M artificial columns keep every node LP feasible except against the
connectivity row, so a node whose master LP is infeasible, or whose
converged LP still carries a positive artificial, is provably infeasible
and is dropped.  Branching restricts pricing through extra network arcs
and deactivates pooled columns that contradict the node's fixings; both
views are recomputed from the node's own state, so moving around the
tree needs no undo bookkeeping.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

from . import lp
from .flow import ComponentResults, weighted_vertex_connectivity
from .graph import Graph, automorphism_generators, connected_components
from .instance import INFEASIBLE, TRIVIAL, Instance, screen
from .master import COVER, Rmp, build_clique_family, init_rmp
from .pricing import MAX_COLUMNS, BranchState, price
from .symmetry import propagate

log = logging.getLogger(__name__)

OPTIMAL = "Optimal"
INFEASIBLE_STATUS = "Infeasible"
TIME_LIMIT = "TimeLimit"

#: x-values this close to an integer count as integral
INT_TOL = 1e-6
BOUND_EPS = 1e-6
#: strong-branching probes stop after this many simplex pivots; a probe
#: stopped in its dual phase still scores the dual bound reached so far
PROBE_PIVOT_CAP = 100
#: observations per direction before a variable's pseudocosts are trusted
RELIABILITY = 4
#: stand-in gain for a probe whose side phase 1 proves infeasible (only
#: the connectivity row lacks a big-M artificial, so this is rare)
BIG_GAIN = 1e9


class EngineError(RuntimeError):
    """An internal solver failure that should never happen on valid input."""


class _Timeout(Exception):
    pass


def _check_deadline(deadline: Optional[float]):
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout


@dataclass
class SolveOptions:
    time_limit: Optional[float] = None
    heuristic: bool = True
    symmetry: bool = True
    clique_family: str = COVER
    connectivity_cut: str = "auto"
    pricing_max_columns: int = MAX_COLUMNS


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
    id: int
    parent: Optional[int]
    depth: int
    state: BranchState  # branching decisions only; symmetry re-derives the rest
    bound: float
    basis: Optional[lp.Basis]
    seq: tuple[int, ...]
    branch_var: Optional[int] = None
    branch_dir: Optional[int] = None
    branch_frac: float = 0.0


class _Pseudocosts:
    """Per-vertex average LP gain per unit of bound movement."""

    def __init__(self):
        self.stats: dict[int, list[float]] = {}

    def record(self, vertex: int, direction: int, per_unit: float):
        entry = self.stats.setdefault(vertex, [0.0, 0.0, 0.0, 0.0])
        if direction == 0:
            entry[0] += per_unit
            entry[1] += 1.0
        else:
            entry[2] += per_unit
            entry[3] += 1.0

    def counts(self, vertex: int) -> tuple[int, int]:
        entry = self.stats.get(vertex)
        if entry is None:
            return 0, 0
        return int(entry[1]), int(entry[3])

    def estimate(self, vertex: int, frac: float) -> tuple[float, float]:
        entry = self.stats[vertex]
        down = entry[0] / entry[1] if entry[1] else 0.0
        up = entry[2] / entry[3] if entry[3] else 0.0
        return down * frac, up * (1.0 - frac)


def disconnection_heuristic(
    inst: Instance, connectivity: Optional[ComponentResults] = None
) -> Optional[Incumbent]:
    """Greedy warm start: repeatedly split the cheapest breakable component.

    Each round computes, per surviving component, the cheapest vertex set
    whose removal disconnects it, and removes the cheapest such set over
    all components (ties to the component with the lowest vertex index).
    Fails — returns None — exactly when too few components remain and
    every one of them is a clique.  Per-component results are read from
    and stored in ``connectivity`` (a fresh dict when not given), so a
    component that survives a round unchanged is not computed again.
    """
    g, k = inst.graph, inst.k
    if connectivity is None:
        connectivity = {}
    removed: set[int] = set()
    while True:
        keep = [v for v in range(g.n) if v not in removed]
        comps = connected_components(g, within=keep)
        if len(comps) >= k:
            cut = tuple(sorted(removed))
            cost = sum(g.costs[v] for v in cut)
            return Incumbent(cut, cost, len(comps))
        conn = weighted_vertex_connectivity(g, keep, connectivity)
        if conn.unbreakable:
            return None
        removed.update(conn.vertices)


@dataclass
class CgWork:
    """Master pivots and pricing seconds, summed over the loops given it."""

    pivots: int = 0
    pricing_seconds: float = 0.0


def column_generation(
    rmp: Rmp,
    g: Graph,
    state: BranchState,
    basis: Optional[lp.Basis] = None,
    *,
    work: CgWork,
    max_columns: int = MAX_COLUMNS,
    deadline: Optional[float] = None,
) -> Optional[lp.LpResult]:
    """Solve the master, price, add columns; repeat until none is added.

    Returns the converged LP, or None when the master LP is infeasible
    (the connectivity row has no artificial).  Raises ``EngineError`` on
    any other LP failure, and ``_Timeout`` before a master solve past the
    deadline, with ``work`` counted so far.
    """
    while True:
        _check_deadline(deadline)
        res = rmp.model.solve(warm=basis)
        work.pivots += res.iterations
        if res.status == lp.INFEASIBLE:
            log.debug("master LP infeasible")
            return None
        if res.status != lp.OPTIMAL:
            raise EngineError(f"master LP ended with {res.status}")
        basis = res.basis
        t0 = time.monotonic()
        outcome = price(
            g, rmp.fam, rmp.extract_duals(res), state, max_columns=max_columns
        )
        work.pricing_seconds += time.monotonic() - t0
        if not sum(rmp.add_column(col.subset) for col in outcome.columns):
            if outcome.columns:
                # the violated cluster is pooled and active, so its margin
                # is below the simplex tolerance; treat CG as converged
                log.debug("pricing returned only pooled columns")
            return res


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> SolveReport:
    return _Search(inst, opts or SolveOptions()).run()


class _Search:
    def __init__(self, inst: Instance, opts: SolveOptions):
        self.inst = inst
        self.opts = opts
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
        self.inflight_bound: Optional[float] = None
        self.pseudo = _Pseudocosts()
        self.generators: list[list[int]] = []
        self.next_id = 1

    # -- plumbing -------------------------------------------------------------

    def _report(self, status: str, **extra) -> SolveReport:
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
        for key, value in extra.items():
            setattr(rep, key, value)
        if self.incumbent is not None:
            rep.objective = self.incumbent.objective
            rep.cut = self.incumbent.cut
            rep.num_components = self.incumbent.components
        if status == OPTIMAL:
            rep.best_bound = rep.objective
            if rep.objective is not None and self.root_bound is not None:
                if rep.objective > 1e-9:
                    # The root bound can drift a few ulps above an integer
                    # optimum; a negative gap is impossible, so clamp.
                    rep.gap_percent = max(
                        0.0,
                        100.0
                        * (rep.objective - self.root_bound)
                        / rep.objective,
                    )
                else:
                    rep.gap_percent = 0.0
        elif status == TIME_LIMIT:
            bounds = [entry[0] for entry in self.heap]
            if self.inflight_bound is not None:
                bounds.append(self.inflight_bound)
            if bounds:
                bb = min(bounds)
                rep.best_bound = None if math.isinf(bb) else bb
            elif self.incumbent is not None:
                rep.best_bound = self.incumbent.objective
            if (
                self.incumbent is not None
                and rep.best_bound is not None
                and self.incumbent.objective > 1e-9
            ):
                rep.gap_percent = max(
                    0.0,
                    100.0
                    * (self.incumbent.objective - rep.best_bound)
                    / self.incumbent.objective,
                )
        return rep

    def _prunable(self, bound: float) -> bool:
        if self.incumbent is None:
            return False
        limit = self.incumbent.objective
        if self.integral_costs:
            return bound > limit - 1.0 + BOUND_EPS
        return bound >= limit - BOUND_EPS

    # -- main loop ------------------------------------------------------------

    def run(self) -> SolveReport:
        scr = screen(self.inst)
        if scr.status == TRIVIAL:
            self.incumbent = Incumbent((), 0.0, scr.num_components)
            return self._report(OPTIMAL, gap_percent=0.0)
        if scr.status == INFEASIBLE:
            return self._report(INFEASIBLE_STATUS)

        fam = build_clique_family(self.g, self.opts.clique_family)
        # the master's connectivity row and the heuristic's first round
        # need the same per-component cuts; compute each once
        connectivity: ComponentResults = {}
        self.rmp = init_rmp(
            self.inst,
            fam,
            connectivity_cut=self.opts.connectivity_cut,
            connectivity=connectivity,
        )
        if self.opts.heuristic:
            self.incumbent = disconnection_heuristic(self.inst, connectivity)
        if self.opts.symmetry:
            self.generators = automorphism_generators(self.g)

        root = BnpNode(0, None, 0, BranchState(), -math.inf, None, ())
        heapq.heappush(self.heap, (root.bound, 0, root.id, root))
        try:
            while self.heap:
                _check_deadline(self.deadline)
                bound, _, _, node = heapq.heappop(self.heap)
                if self._prunable(bound):
                    continue
                self.inflight_bound = bound
                self.nodes_processed += 1
                self.max_depth = max(self.max_depth, node.depth)
                self._process(node)
                self.inflight_bound = None
        except _Timeout:
            return self._report(TIME_LIMIT)
        status = OPTIMAL if self.incumbent is not None else INFEASIBLE_STATUS
        return self._report(status)

    # -- node processing --------------------------------------------------------

    def _effective_state(self, node: BnpNode) -> Optional[BranchState]:
        """Branch fixings plus symmetry-forced fixings; None = dominated."""
        if not self.generators or not node.seq:
            return node.state
        branch_values = {
            v: (1 if v in node.state.fixed_to_cut else 0) for v in node.seq
        }
        result = propagate(self.generators, node.seq, branch_values)
        if result.conflict:
            return None
        if not result.force_cut and not result.force_keep:
            return node.state
        return BranchState(
            node.state.fixed_to_cut | result.force_cut,
            node.state.fixed_to_keep | result.force_keep,
        )

    def _apply_state(self, state: BranchState):
        rmp = self.rmp
        for v in range(self.g.n):
            if v in state.fixed_to_cut:
                rmp.set_vertex_fixed(v, 1)
            elif v in state.fixed_to_keep:
                rmp.set_vertex_fixed(v, 0)
            else:
                rmp.set_vertex_fixed(v, None)
        for index, col in enumerate(rmp.columns):
            rmp.set_column_active(index, state.allows_cluster(self.g, col.subset))

    def _process(self, node: BnpNode):
        state = self._effective_state(node)
        if state is None:
            return  # dominated by a symmetric sibling
        self._apply_state(state)
        res = column_generation(
            self.rmp, self.g, state, node.basis, work=self.work,
            max_columns=self.opts.pricing_max_columns, deadline=self.deadline,
        )
        if res is None:
            return
        bound = res.objective
        if node.id == 0:
            self.root_bound = bound
            self.cols_root = len(self.rmp.columns)
        if self.rmp.infeasible(res):
            return  # no admissible solution under these fixings
        if node.branch_var is not None and math.isfinite(node.bound):
            self._record_branch_gain(node, bound)
        if bound < node.bound - BOUND_EPS:
            log.debug(
                "node %d bound %.9g below parent bound %.9g",
                node.id,
                bound,
                node.bound,
            )
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
        var = self._select_branch(node, state, res, fractional, xvals)
        self._branch(node, var, xvals[var], res.basis, bound)

    def _record_branch_gain(self, node: BnpNode, bound: float):
        gain = max(0.0, bound - node.bound)
        frac = node.branch_frac
        if node.branch_dir == 0 and frac > INT_TOL:
            self.pseudo.record(node.branch_var, 0, gain / frac)
        elif node.branch_dir == 1 and (1.0 - frac) > INT_TOL:
            self.pseudo.record(node.branch_var, 1, gain / (1.0 - frac))

    def _integral_leaf(
        self,
        node: BnpNode,
        state: BranchState,
        res: lp.LpResult,
        xvals: list[float],
        bound: float,
    ):
        cut = tuple(v for v in range(self.g.n) if xvals[v] > 0.5)
        keep = [v for v in range(self.g.n) if xvals[v] <= 0.5]
        comps = connected_components(self.g, within=keep)
        if len(comps) >= self.inst.k:
            cost = sum(self.g.costs[v] for v in cut)
            if (
                self.incumbent is None
                or cost < self.incumbent.objective - 1e-9
            ):
                self.incumbent = Incumbent(cut, cost, len(comps))
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
        values = self.rmp.column_values(res)
        for index, col in enumerate(self.rmp.columns):
            if values[index] > 1e-9:
                candidates.update(
                    v
                    for v in col.subset
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

    def _select_branch(
        self,
        node: BnpNode,
        state: BranchState,
        res: lp.LpResult,
        candidates: list[int],
        xvals: list[float],
    ) -> int:
        best_var = candidates[0]
        best_score = -1.0
        for v in candidates:
            frac = xvals[v] - math.floor(xvals[v])
            down_n, up_n = self.pseudo.counts(v)
            if down_n >= RELIABILITY and up_n >= RELIABILITY:
                gain_down, gain_up = self.pseudo.estimate(v, frac)
            else:
                gain_down = self._probe(v, 0, res, frac)
                gain_up = self._probe(v, 1, res, frac)
            score = max(gain_down, 1e-6) * max(gain_up, 1e-6)
            if score > best_score:  # ties keep the lowest vertex index
                best_score = score
                best_var = v
        return best_var

    def _probe(
        self, v: int, direction: int, res: lp.LpResult, frac: float
    ) -> float:
        model = self.rmp.model
        xv = self.rmp.x_vars[v]
        saved = model.bounds(xv)
        pin = float(direction)
        model.set_bounds(xv, pin, pin)
        probe = model.solve(warm=res.basis, iteration_limit=PROBE_PIVOT_CAP)
        model.set_bounds(xv, *saved)
        if probe.status == lp.INFEASIBLE:
            return BIG_GAIN
        if math.isinf(probe.bound):
            return 0.0  # stopped before any bound was known
        gain = max(0.0, probe.bound - res.objective)
        width = frac if direction == 0 else 1.0 - frac
        if width > INT_TOL:
            self.pseudo.record(v, direction, gain / width)
        return gain

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
            child = BnpNode(
                self.next_id,
                node.id,
                node.depth + 1,
                node.state.with_fixing(var, direction),
                bound,
                basis,
                seq,
                branch_var=var,
                branch_dir=direction,
                branch_frac=frac,
            )
            self.next_id += 1
            heapq.heappush(
                self.heap, (bound, -child.depth, child.id, child)
            )

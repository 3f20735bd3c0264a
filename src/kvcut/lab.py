"""Root LP-bound laboratory for three formulations of the same problem.

Computes, per instance, the root relaxation value of (a) the column
formulation the solver branches on (any clique family, solved by the
engine's own column-generation loop), (b) the natural vertex-variable
model with its exponential family of forest rows, solved by separation,
and (c) the compact cluster-assignment model, whose value is known in
closed form (0, or ``inf`` when k > n).  The known strength relations
between the three are what the test suite checks; this module only
produces the numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from . import lp
from .engine import CgWork, EngineError, column_generation
from .graph import Graph
from .instance import Instance
from .master import COVER, FAMILY_MODES, BranchState, build_clique_family, init_rmp
from .pricing import price  # noqa: F401 - unused; perfbench/spans.py wraps it by name

#: a forest row is added only when violated by more than this
SEPARATION_TOL = 1e-6
MAX_SEPARATION_ROUNDS = 10_000


@dataclass
class FormulationBound:
    value: float
    seconds: float
    iterations: int
    columns: Optional[int] = None  # column formulation only
    cuts: Optional[int] = None  # separation loop only
    gap: Optional[float] = None  # 100 (z* - value) / z* when z* is known


@dataclass
class BoundReport:
    instance: str
    n: int
    m: int
    k: int
    bounds: dict[str, FormulationBound] = field(default_factory=dict)


def _with_gap(bound: FormulationBound, optimum: Optional[float]) -> FormulationBound:
    if optimum is not None and optimum > 1e-9 and math.isfinite(bound.value):
        bound.gap = 100.0 * (optimum - bound.value) / optimum
    return bound


def lp_bound_extended(
    inst: Instance,
    family: str = COVER,
    optimum: Optional[float] = None,
) -> FormulationBound:
    """Root value of the column formulation under the given clique family.

    Runs the search tree's column-generation loop to convergence — no
    connectivity row and no branching restrictions, so the value is the
    plain relaxation.
    Returns ``inf`` when the relaxation itself is infeasible (only the
    big-M columns can carry it), which certifies an infeasible instance.
    """
    start = time.monotonic()
    fam = build_clique_family(inst.graph, family)
    rmp = init_rmp(inst, fam, connectivity_bound=False)
    work = CgWork()
    res = column_generation(rmp, BranchState(), work=work)
    value = math.inf if res is None else res.objective
    return _with_gap(
        FormulationBound(
            value,
            time.monotonic() - start,
            work.pivots,
            columns=len(rmp.columns),
        ),
        optimum,
    )


def max_weight_forest(g: Graph, weights: list[float]) -> list[int]:
    """Greedy maximum-weight forest over positive-weight edges.

    Returns edge indices.  Greedy on edges sorted by decreasing weight is
    exact here because forests form a matroid.  Ties break on the edge's
    endpoints so separation is deterministic.
    """
    order = sorted(
        (i for i in range(len(g.edges)) if weights[i] > 0.0),
        key=lambda i: (-weights[i], g.edges[i]),
    )
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for i in order:
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(i)
    return chosen


def lp_bound_natural(
    inst: Instance, optimum: Optional[float] = None
) -> FormulationBound:
    """Root value of the vertex-variable model with forest rows.

    Every forest F yields the valid row
    ``sum_v (deg_F(v) - 1) x_v >= k - n + |F|`` (delete enough vertices
    that the surviving forest splits into k pieces).  The most violated
    row for a given x is found exactly by a maximum-weight forest with
    edge weights ``1 - x_u - x_v``; rows are added until none is
    violated.  Raises ``EngineError`` when MAX_SEPARATION_ROUNDS rounds
    all add a row.
    """
    start = time.monotonic()
    g, k = inst.graph, inst.k
    model = lp.LinearProgram()
    xcols = [model.add_variable(g.costs[v], 0.0, 1.0) for v in range(g.n)]
    iterations = 0
    cuts = 0
    basis = None
    for _ in range(MAX_SEPARATION_ROUNDS):
        res = model.solve(basis)
        iterations += res.iterations
        if res.status == lp.INFEASIBLE:
            # accumulated rows can contradict the box bounds outright
            # (small graphs with k close to n); the instance is infeasible
            value = math.inf
            break
        if res.status != lp.OPTIMAL:
            raise EngineError(f"bound LP ended with {res.status}")
        value = res.objective
        basis = res.basis
        xv = [float(res.x[c]) for c in xcols]
        weights = [1.0 - xv[u] - xv[v] for u, v in g.edges]
        forest = max_weight_forest(g, weights)
        rhs = k - g.n + len(forest)
        deg = [0] * g.n
        for i in forest:
            u, v = g.edges[i]
            deg[u] += 1
            deg[v] += 1
        lhs = sum((deg[v] - 1) * xv[v] for v in range(g.n))
        if lhs >= rhs - SEPARATION_TOL:
            break
        model.add_row(
            lp.GREATER,
            float(rhs),
            [(xcols[v], float(deg[v] - 1)) for v in range(g.n) if deg[v] != 1],
        )
        cuts += 1
    else:
        # the last value predates the last row and is no converged bound
        raise EngineError(
            f"natural bound not converged after {MAX_SEPARATION_ROUNDS} separation rounds"
        )
    return _with_gap(
        FormulationBound(value, time.monotonic() - start, iterations, cuts=cuts),
        optimum,
    )


def lp_bound_compact(
    inst: Instance, optimum: Optional[float] = None
) -> FormulationBound:
    """Root value of the compact cluster-assignment model, in closed form.

    Variables y[i][v] in [0, 1] assign vertex v to one of k clusters; the
    model maximizes the assigned weight, so the deletion bound is the total
    cost minus the LP value.  Adjacent vertices may not sit in distinct
    clusters (y[i][u] + sum_{j != i} y[j][v] <= 1 per cluster i and edge
    uv, read both ways), each vertex takes at most one cluster
    (sum_i y[i][v] <= 1), and no cluster may be empty (sum_v y[i][v] >= 1).

    The LP needs no solve.  If n >= k, y = 1/k meets every row and assigns
    all of the cost, which the vertex rows cap, so the bound is exactly 0.
    If n < k, the cluster rows need sum y >= k while the vertex rows cap
    it at n, so the LP is infeasible and the bound is ``inf``.
    """
    start = time.monotonic()
    value = 0.0 if inst.graph.n >= inst.k else math.inf
    return _with_gap(
        FormulationBound(value, time.monotonic() - start, 0), optimum
    )


def bound_report(inst: Instance, optimum: Optional[float] = None) -> BoundReport:
    """All formulation bounds for one instance, keyed by formulation name."""
    report = BoundReport(inst.name, inst.graph.n, inst.graph.m, inst.k)
    for family in FAMILY_MODES:
        report.bounds[f"extended-{family}"] = lp_bound_extended(
            inst, family, optimum
        )
    report.bounds["natural"] = lp_bound_natural(inst, optimum)
    report.bounds["compact"] = lp_bound_compact(inst, optimum)
    return report

"""Brute-force ground truth, kept deliberately independent of the solver.

Two regimes: ``Full`` walks every subset of vertices (small n only) and
``CostBounded`` walks subsets best-first by total cost until the first
feasible one, which is then provably minimum.  No bounding tricks beyond
plain cost comparison — the point of this module is to disagree with the
engine if the engine is wrong.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import is_k_vertex_cut
from .instance import Instance

FULL_REGIME_MAX_N = 20


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class CostBounded:
    limit: float


@dataclass(frozen=True)
class OracleResult:
    objective: float
    cut: tuple[int, ...]
    explored: int


@dataclass(frozen=True)
class Infeasible:
    explored: int


@dataclass(frozen=True)
class BudgetExceeded:
    """No feasible cut within the budget; ``bound`` is the cheapest cost
    any unexplored subset can have, hence a valid lower bound."""

    bound: float
    explored: int


def _full(inst: Instance) -> OracleResult | Infeasible:
    g = inst.graph
    if g.n > FULL_REGIME_MAX_N:
        raise ValueError(f"full regime is capped at n={FULL_REGIME_MAX_N}")
    # cost of every mask by peeling the lowest bit
    cost = [0.0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        cost[mask] = cost[mask ^ (1 << low)] + g.costs[low]
    best_cost = None
    best_cut = None
    for mask in range(1 << g.n):
        c = cost[mask]
        if best_cost is not None:
            if c > best_cost:
                continue
            cut = tuple(v for v in range(g.n) if mask >> v & 1)
            if c == best_cost and cut >= best_cut:
                continue
        else:
            cut = tuple(v for v in range(g.n) if mask >> v & 1)
        if is_k_vertex_cut(g, cut, inst.k):
            best_cost, best_cut = c, cut
    if best_cost is None:
        return Infeasible(1 << g.n)
    return OracleResult(best_cost, best_cut, 1 << g.n)


def _cost_bounded(inst: Instance, limit: float) -> OracleResult | Infeasible | BudgetExceeded:
    g = inst.graph
    # Heap of (cost, subset); children extend a subset past its largest
    # vertex, so every subset appears exactly once.  Costs are
    # nonnegative, so children never undercut their parent and the first
    # feasible pop is a global minimum.  Equal-cost subsets pop in
    # lexicographic order, fixing the tie-break.
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    explored = 0
    while heap:
        c, cut = heapq.heappop(heap)
        if c > limit:
            return BudgetExceeded(c, explored)
        explored += 1
        if is_k_vertex_cut(g, cut, inst.k):
            return OracleResult(c, cut, explored)
        start = cut[-1] + 1 if cut else 0
        for v in range(start, g.n):
            heapq.heappush(heap, (c + g.costs[v], cut + (v,)))
    return Infeasible(explored)


def brute_force(
    inst: Instance, regime: Full | CostBounded = Full()
) -> OracleResult | Infeasible | BudgetExceeded:
    """Exact minimum-cost cut leaving at least k components, by search.

    ``Full`` checks all ``2^n`` subsets (requires n ≤ 20) and reports the
    cheapest feasible one, ties broken toward the lexicographically
    smallest vertex tuple.  ``CostBounded(limit)`` explores subsets in
    nondecreasing cost order and stops either at the first feasible
    subset (provably optimal) or once the next candidate already costs
    more than ``limit``.
    """
    if isinstance(regime, Full):
        return _full(inst)
    return _cost_bounded(inst, regime.limit)

"""The engine against HiGHS (``scipy.optimize.milp``) on the compact ILP.

The compact model assigns every vertex to one of k parts or deletes it.
Binary y[v, i] puts v in part i and binary x[v] deletes it:

* one assignment row per vertex: x[v] + sum_i y[v, i] = 1,
* one row per part: sum_v y[v, i] >= 1, so no part is empty,
* per edge uv and part i: y[u, i] + sum_{j != i} y[v, j] <= 1, so two
  adjacent vertices never sit in different parts,

minimising sum_v c[v] x[v].  Its optimum is the minimum-cost k-vertex cut,
and it is infeasible exactly when no stable set of size k exists.  It
shares no code with the engine, so the two agree only if both are right.
"""

import random

import numpy as np
import pytest

import kvcut.engine
from kvcut.engine import INFEASIBLE_STATUS, OPTIMAL, solve
from kvcut.graph import is_k_vertex_cut
from kvcut.instance import Instance, gnp_graph

sp = pytest.importorskip("scipy.optimize")


def compact_ilp(inst: Instance):
    """(c, A, lower, upper) of the compact ILP over all-binary columns.

    Column v * (k + 1) is x[v]; column v * (k + 1) + 1 + i is y[v, i].
    """
    g, k = inst.graph, inst.k
    width = k + 1

    def y(v, i):
        return v * width + 1 + i

    c = np.zeros(g.n * width)
    c[::width] = g.costs
    rows, lower, upper = [], [], []

    def row(entries, lo, hi):
        a = np.zeros(g.n * width)
        for j in entries:
            a[j] = 1.0
        rows.append(a)
        lower.append(lo)
        upper.append(hi)

    for v in range(g.n):
        row([v * width] + [y(v, i) for i in range(k)], 1.0, 1.0)
    for i in range(k):
        row([y(v, i) for v in range(g.n)], 1.0, np.inf)
    for u, v in g.edges:
        for i in range(k):
            row([y(u, i)] + [y(v, j) for j in range(k) if j != i], -np.inf, 1.0)
    return c, np.array(rows), np.array(lower), np.array(upper)


def highs(inst: Instance):
    """HiGHS's optimal cut, sorted, or None when the ILP is infeasible."""
    c, a, lower, upper = compact_ilp(inst)
    res = sp.milp(
        c,
        constraints=sp.LinearConstraint(a, lower, upper),
        integrality=np.ones(len(c)),
        bounds=sp.Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    width = inst.k + 1
    return tuple(v for v in range(inst.graph.n) if res.x[v * width] > 0.5)


def _costs(rng, n, kind):
    if kind == 1:  # mostly zero
        return [0.0 if rng.random() < 0.6 else float(rng.randint(1, 4)) for _ in range(n)]
    if kind == 2:
        return [float(rng.randint(0, 9)) for _ in range(n)]
    if kind == 3:
        return [round(rng.uniform(0.1, 5.0), 3) for _ in range(n)]
    return [1.0] * n


def _instances(count, seed):
    """Sparse and dense G(n, p), n 15-26, four kinds of cost in turn."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(15, 26)
        sparse = trial % 8 < 4
        p = rng.uniform(0.08, 0.2) if sparse else rng.uniform(0.35, 0.6)
        g = gnp_graph(n, p, seed=rng.randrange(2**32))
        k = rng.randint(2, 4 if sparse else 3)
        yield Instance(g.with_costs(_costs(rng, n, trial % 4)), k)


def test_matches_highs_on_the_compact_ilp(monkeypatch):
    optima = 0
    for inst in _instances(12, seed=33):
        cut = highs(inst)
        assert cut is None or is_k_vertex_cut(inst.graph, cut, inst.k), inst
        for symmetry in (True, False):
            with monkeypatch.context() as m:
                if not symmetry:
                    m.setattr(kvcut.engine, "automorphism_generators", lambda g, deadline: [])
                rep = solve(inst)
            if cut is None:
                assert rep.status == INFEASIBLE_STATUS, (inst, symmetry)
                continue
            assert rep.status == OPTIMAL, (inst, symmetry)
            exact = sum((inst.graph.costs[v] for v in cut), 0.0)
            assert rep.objective == pytest.approx(exact, abs=1e-6), (inst, symmetry)
            assert is_k_vertex_cut(inst.graph, rep.cut, inst.k), (inst, symmetry)
        optima += cut is not None
    assert optima >= 10

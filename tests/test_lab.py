import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kvcut
from kvcut import lab, lp
from kvcut.engine import EngineError
from kvcut.graph import Graph, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted, screen
from kvcut.lab import (
    FormulationBound,
    bound_report,
    lp_bound_compact,
    lp_bound_extended,
    lp_bound_natural,
    max_weight_forest,
)
from kvcut.oracle import OracleResult, brute_force

from graphs import cycle, path3


def _acyclic_subsets(g):
    """Every forest of g as a list of edge indices (exhaustive check)."""
    out = []
    for r in range(len(g.edges) + 1):
        for combo in itertools.combinations(range(len(g.edges)), r):
            parent = list(range(g.n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            ok = True
            for i in combo:
                u, v = g.edges[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if ok:
                out.append(combo)
    return out


def _natural_lp_all_forests(g, k):
    """The vertex-variable LP with one row per explicitly listed forest."""
    model = lp.LinearProgram()
    xs = [model.add_variable(g.costs[v], 0.0, 1.0) for v in range(g.n)]
    for forest in _acyclic_subsets(g):
        deg = [0] * g.n
        for i in forest:
            u, v = g.edges[i]
            deg[u] += 1
            deg[v] += 1
        rhs = k - g.n + len(forest)
        entries = [(xs[v], float(deg[v] - 1)) for v in range(g.n) if deg[v] != 1]
        model.add_row(lp.GREATER, float(rhs), entries)
    res = model.solve()
    assert res.status == lp.OPTIMAL
    return res.objective


def _extended_lp_all_subsets(g, k, cliques):
    """The column LP with every nonempty vertex subset written out."""
    model = lp.LinearProgram()
    count = model.add_row(lp.GREATER, float(k), [])
    cover = [model.add_row(lp.GREATER, 1.0, []) for _ in range(g.n)]
    packed = [model.add_row(lp.LESS, 1.0, []) for _ in cliques]
    for v in range(g.n):
        model.add_variable(g.costs[v], 0.0, lp.INF, [(cover[v], 1.0)])
    for r in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            entries = [(count, 1.0)]
            entries += [(cover[v], 1.0) for v in subset]
            entries += [
                (packed[i], 1.0)
                for i, cl in enumerate(cliques)
                if set(cl) & set(subset)
            ]
            model.add_variable(0.0, 0.0, lp.INF, entries)
    res = model.solve()
    assert res.status == lp.OPTIMAL
    return res.objective


# ------------------------------------------------------------ hand values


def test_natural_bound_on_c6_is_three_halves():
    inst = Instance(cycle(6), 2)
    got = lp_bound_natural(inst)
    assert got.value == pytest.approx(1.5, abs=1e-6)
    full = _natural_lp_all_forests(cycle(6), 2)  # 63 forests, no loop
    assert got.value == pytest.approx(full, abs=1e-6)
    assert got.cuts < 63  # the separation loop needed only a few rows


def test_natural_bound_on_p3_is_one():
    inst = Instance(path3(), 2)
    got = lp_bound_natural(inst)
    assert got.value == pytest.approx(1.0, abs=1e-6)
    assert got.value == pytest.approx(_natural_lp_all_forests(path3(), 2))


def test_extended_cover_bound_on_p3_is_one():
    inst = Instance(path3(), 2)
    got = lp_bound_extended(inst, family="cover")
    assert got.value == pytest.approx(1.0, abs=1e-6)
    full = _extended_lp_all_subsets(path3(), 2, [(0, 1), (1, 2)])
    assert got.value == pytest.approx(full, abs=1e-6)
    assert got.columns is not None and got.columns < 7


# The extended bound at k=4: (instance, family, value, pivots, columns).
# These are the counts under one BLAS thread, as the benchmark runs; with
# two threads bcspwr01/edges takes 136 pivots and ends with 72 columns.
# Pivots count pivots and bound flips, not pricing passes.  A solve ends on
# the inverse its pivots kept, so on a degenerate master the basis reached,
# and with it these counts, depends on the rounding of earlier solves too.
# Each case has a fixed id, so that re-pinning a count keeps its name. The
# ids hold the values first pinned, when pricing passes still counted.
PINNED_EXTENDED_WORK = [
    # (graph, clique family or bound, value, pivots, columns or cuts)
    pytest.param(
        "karate", "cover", 15 / 13, 138, 83,
        id="karate-cover-1.1538461538461537-278-102",
    ),
    pytest.param(
        "bcspwr01", "partition", 81 / 17, 139, 91,
        id="bcspwr01-partition-4.764705882352941-179-90",
    ),
    pytest.param(
        "bcspwr01", "edges", 117 / 37, 149, 86,
        id="bcspwr01-edges-3.1621621621621623-158-88",
    ),
    # the compact bound is in closed form: no LP, no pivots
    pytest.param(
        "bcspwr01", "compact", 0.0, 0, None,
        id="bcspwr01-compact-0.0-229-None",
    ),
    # rows added between warm solves, so no solve can reuse the last inverse
    pytest.param(
        "gnp-40-0.08-3", "natural", 5.0, 172, 40,
        id="gnp-40-0.08-3-natural-5.0-197-44",
    ),
]

_EXTENDED_WORK_SCRIPT = """
import json, sys
from kvcut.graph import read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.lab import lp_bound_compact, lp_bound_extended, lp_bound_natural
name, bound = sys.argv[2], sys.argv[3]
if name.startswith("gnp-"):
    _, n, p, seed = name.split("-")
    g = make_weighted(gnp_graph(int(n), float(p), int(seed)), int(seed))
else:
    g = read_dimacs(sys.argv[1]).graph
inst = Instance(g, 4)
if bound == "compact":
    b = lp_bound_compact(inst)
elif bound == "natural":
    b = lp_bound_natural(inst)
else:
    b = lp_bound_extended(inst, bound)
print(json.dumps([b.value, b.iterations, b.cuts if bound == "natural" else b.columns]))
"""


def _bound_in_child(name, bound):
    """(value, pivots, columns or cuts) of one bound at k=4, computed in a
    child process that fixes the BLAS thread count to one before numpy
    loads."""
    src = str(Path(kvcut.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    data = Path(kvcut.__file__).parent / "data" / f"{name}.col"
    proc = subprocess.run(
        [sys.executable, "-c", _EXTENDED_WORK_SCRIPT, str(data), name, bound],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "name, family, value, pivots, columns", PINNED_EXTENDED_WORK
)
def test_extended_bound_work_is_pinned(name, family, value, pivots, columns):
    # the simplex work of the bound LPs, pinned so that a refactor cannot
    # move it silently
    got_value, got_pivots, got_columns = _bound_in_child(name, family)
    assert got_value == pytest.approx(value, abs=1e-9)
    assert (got_pivots, got_columns) == (pivots, columns)


@pytest.mark.parametrize("family", ["edges", "partition", "cover"])
def test_gnp45_root_reaches_the_natural_bound(family):
    # priced one cluster per round, this sparse root ended uncertified
    # (edges), at the pivot cap (partition) or after 426,246 pivots
    # (cover); with both min-cut sides and their pieces column generation
    # takes a few thousand, although the simplex defect behind it is open
    got_value, got_pivots, _ = _bound_in_child("gnp-45-0.08-3", family)
    assert got_value == pytest.approx(3.0, abs=1e-6)
    assert got_pivots <= 50_000


@pytest.mark.parametrize(
    "bound, what", [(lp_bound_natural, "bound LP")], ids=["natural"]
)
def test_singular_basis_raises_engine_error(monkeypatch, bound, what):
    # the extended bound runs column_generation, which test_engine covers
    def singular(self):
        raise lp.SingularBasisError("basis matrix became singular")

    monkeypatch.setattr(lp._Simplex, "_inverse", singular)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)  # the first pivot inverts
    with pytest.raises(EngineError, match=f"^{what} ended with singular$"):
        bound(Instance(cycle(6), 2))


def test_natural_bound_raises_when_the_separation_rounds_run_out(monkeypatch):
    # bcspwr01 at k=2 converges to 39/37 after some rows.  With one round
    # fewer than it needs, every round adds a row, and the last value
    # (0.2 with the cap at three) is no bound: it predates the last row
    g = read_dimacs(Path(kvcut.__file__).parent / "data" / "bcspwr01.col").graph
    converged = lp_bound_natural(Instance(g, 2))
    assert converged.value == pytest.approx(39 / 37, abs=1e-6)
    for cap in (3, converged.cuts):
        monkeypatch.setattr(lab, "MAX_SEPARATION_ROUNDS", cap)
        with pytest.raises(EngineError, match=f"not converged after {cap} separation rounds"):
            lp_bound_natural(Instance(g, 2))
    monkeypatch.setattr(lab, "MAX_SEPARATION_ROUNDS", converged.cuts + 1)
    assert lp_bound_natural(Instance(g, 2)).value == converged.value


def test_compact_bound_on_p3_is_zero():
    got = lp_bound_compact(Instance(path3(), 2))
    assert got.value == pytest.approx(0.0, abs=1e-6)


def _compact_lp_bound(g, k):
    """The compact model's bound by a simplex solve, over the rows of its
    docstring; ``inf`` when the LP is infeasible."""
    model = lp.LinearProgram()
    # minimize -(assigned weight); bound = total cost + min value
    y = [
        [model.add_variable(-g.costs[v], 0.0, 1.0) for v in range(g.n)]
        for _ in range(k)
    ]
    for v in range(g.n):
        model.add_row(lp.LESS, 1.0, [(y[i][v], 1.0) for i in range(k)])
    for u, v in g.edges:
        for i in range(k):
            for a, b in ((u, v), (v, u)):
                entries = [(y[i][a], 1.0)]
                entries += [(y[j][b], 1.0) for j in range(k) if j != i]
                model.add_row(lp.LESS, 1.0, entries)
    for i in range(k):
        model.add_row(lp.GREATER, 1.0, [(y[i][v], 1.0) for v in range(g.n)])
    res = model.solve()
    if res.status == lp.INFEASIBLE:
        return math.inf
    assert res.status == lp.OPTIMAL, res.status
    return g.total_cost() + res.objective


def test_compact_closed_form_matches_the_lp():
    # at most 400 rows per LP keeps the dense simplex quick: a 12-clique
    # at k=14 would have 1,874
    rng = random.Random(41)
    seen = {"edgeless": 0, "clique": 0, "gnp": 0, "n=k": 0, "n<k": 0}
    sizes, ks, costs_seen = set(), set(), set()
    checked = 0
    while checked < 120:
        n, k = rng.randint(1, 12), rng.randint(2, 14)
        if rng.random() < 0.15:
            n = k = rng.randint(2, 12)
        kind = rng.choice(("edgeless", "clique", "gnp"))
        if kind == "edgeless":
            edges = []
        elif kind == "clique":
            edges = list(itertools.combinations(range(n), 2))
        else:
            edges = gnp_graph(n, rng.choice((0.2, 0.4)), seed=3000 + checked).edges
        if n + 2 * len(edges) * k + k > 400:
            continue
        cost_kind = rng.choice(("zero", "some zero", "fractional", "1e6"))
        costs = {
            "zero": [0.0] * n,
            "some zero": [rng.choice((0.0, 0.5, 1.25)) for _ in range(n)],
            "fractional": [rng.uniform(0.0, 3.0) for _ in range(n)],
            "1e6": [1e6] * n,
        }[cost_kind]
        g = Graph(n, edges, costs)
        got = lp_bound_compact(Instance(g, k))
        want = _compact_lp_bound(g, k)
        assert got.iterations == 0
        if n < k:
            assert got.value == math.inf and want == math.inf, (n, k, kind)
        else:
            assert got.value == 0.0, (n, k, kind)
            assert abs(want) <= 1e-9 * max(1.0, g.total_cost()), (n, k, kind, want)
        checked += 1
        seen[kind] += 1
        seen["n=k"] += n == k
        seen["n<k"] += n < k
        sizes.add(n)
        ks.add(k)
        costs_seen.add(cost_kind)
    assert min(seen.values()) >= 10, seen
    assert sizes == set(range(1, 13)) and ks == set(range(2, 15))
    assert len(costs_seen) == 4


# ------------------------------------------------------------ edge behavior


def test_natural_bound_is_zero_on_split_graphs():
    g = Graph(5, [(0, 1), (2, 3)])
    assert lp_bound_natural(Instance(g, 2)).value == pytest.approx(0.0)


def test_natural_bound_reports_infeasibility():
    # P3 cannot break into three pieces: the spanning-path row wants
    # x_b >= 2
    got = lp_bound_natural(Instance(path3(), 3))
    assert math.isinf(got.value)
    # the first optimum violates that row; once it is added the second
    # solve is infeasible, and the pivots of both solves are counted
    assert got.iterations == 2 and got.cuts == 1


def test_extended_bound_flags_infeasible_instances():
    clique4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    got = lp_bound_extended(Instance(clique4, 2))
    assert math.isinf(got.value)


def test_compact_bound_stays_feasible_below_n():
    # the relaxation ignores integrality, so an unbreakable clique still
    # admits the uniform fractional assignment and reports a weak zero
    clique4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    got = lp_bound_compact(Instance(clique4, 2))
    assert got.value == pytest.approx(0.0, abs=1e-6)


def test_compact_bound_infeasible_only_past_n():
    assert math.isinf(lp_bound_compact(Instance(path3(), 5)).value)


# ------------------------------------------------------------ forests


def test_max_weight_forest_is_exact():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(3, 7)
        g = gnp_graph(n, rng.uniform(0.3, 0.9), seed=900 + trial)
        if not g.edges:
            continue
        weights = [round(rng.uniform(-1.0, 1.0), 3) for _ in g.edges]
        picked = max_weight_forest(g, weights)
        value = sum(weights[i] for i in picked)
        best = max(
            sum(weights[i] for i in forest)
            for forest in _acyclic_subsets(g)
        )
        assert value == pytest.approx(best), trial


# ------------------------------------------------------------ reports


def test_bound_report_shape_and_gaps():
    inst = Instance(cycle(6), 2)
    exact = brute_force(inst)
    assert isinstance(exact, OracleResult)
    report = bound_report(inst, optimum=exact.objective)
    assert set(report.bounds) == {
        "extended-cover",
        "extended-partition",
        "extended-edges",
        "natural",
        "compact",
    }
    assert report.n == 6 and report.m == 6 and report.k == 2
    for name, bound in report.bounds.items():
        assert isinstance(bound, FormulationBound)
        assert bound.seconds >= 0.0
        if math.isfinite(bound.value):
            assert bound.gap is not None, name
            assert 0.0 <= bound.gap <= 100.0, name
            assert bound.value <= exact.objective + 1e-6, name


def test_dominance_chain_on_random_instances(capsys):
    rng = random.Random(23)
    soft_misses = []
    checked = 0
    while checked < 30:
        n = rng.randint(5, 9)
        g = gnp_graph(n, rng.choice((0.25, 0.4, 0.6)), seed=2000 + checked)
        if rng.random() < 0.3:
            g = make_weighted(g, seed=checked)
        inst = Instance(g, rng.randint(2, 4))
        # trivial or infeasible; at n <= 9 the stable-set search never runs
        # out of budget, so None means a stable set of size k was found
        if screen(inst) is not None:
            continue
        checked += 1
        report = bound_report(inst)
        cover = report.bounds["extended-cover"].value
        partition = report.bounds["extended-partition"].value
        edges = report.bounds["extended-edges"].value
        natural = report.bounds["natural"].value
        compact = report.bounds["compact"].value
        assert edges == pytest.approx(natural, abs=1e-6), inst
        assert cover >= natural - 1e-6, inst
        # empirical expectations, reported but not enforced
        if compact > natural + 1e-6:
            soft_misses.append(f"compact {compact} > natural {natural}")
        if not (edges - 1e-6 <= partition <= cover + 1e-6):
            soft_misses.append(
                f"partition {partition} outside [{edges}, {cover}]"
            )
    for line in soft_misses:
        print("soft dominance miss:", line)
    print(f"dominance chain held on {checked} instances")

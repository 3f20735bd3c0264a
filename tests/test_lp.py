import math
import random

import pytest

from kvcut import lp

INF = float("inf")


def build(costs, bounds, rows):
    """rows: (sense, rhs, dense coefficient list)."""
    model = lp.LinearProgram()
    cols = [model.add_variable(c, lo, hi) for c, (lo, hi) in zip(costs, bounds)]
    for sense, rhs, coefs in rows:
        model.add_row(
            sense, rhs, [(cols[j], a) for j, a in enumerate(coefs) if a != 0.0]
        )
    return model, cols


def test_single_bound_row():
    model, cols = build([1.0], [(0.0, INF)], [(lp.GREATER, 3.0, [1.0])])
    res = model.solve()
    assert res.status == lp.OPTIMAL
    assert abs(res.objective - 3.0) < 1e-9
    assert abs(res.x[cols[0]] - 3.0) < 1e-9
    assert abs(res.duals[0] - 1.0) < 1e-9


def test_unbounded():
    model, _ = build([-1.0], [(0.0, INF)], [])
    assert model.solve().status == lp.UNBOUNDED


def test_infeasible():
    model, _ = build(
        [1.0], [(0.0, 1.0)], [(lp.GREATER, 2.0, [1.0])]
    )
    assert model.solve().status == lp.INFEASIBLE


def test_iteration_limit_reports():
    rng = random.Random(1)
    costs = [rng.uniform(-1, 1) for _ in range(12)]
    rows = [
        (lp.LESS, rng.uniform(5, 10), [rng.uniform(0, 1) for _ in range(12)])
        for _ in range(12)
    ]
    model, _ = build(costs, [(0.0, INF)] * 12, rows)
    res = model.solve(iteration_limit=1)
    assert res.status == lp.ITERATION_LIMIT
    assert math.isnan(res.objective)


def test_incremental_column_matches_monolithic():
    # build in one go
    whole, _ = build(
        [2.0, 1.0],
        [(0.0, INF)] * 2,
        [(lp.GREATER, 4.0, [1.0, 1.0]), (lp.LESS, 3.0, [0.0, 1.0])],
    )
    target = whole.solve()
    # grow from the one-variable version
    model = lp.LinearProgram()
    x0 = model.add_variable(2.0, 0.0, INF)
    r0 = model.add_row(lp.GREATER, 4.0, [(x0, 1.0)])
    r1 = model.add_row(lp.LESS, 3.0, [])
    first = model.solve()
    model.add_variable(1.0, 0.0, INF, entries=[(r0, 1.0), (r1, 1.0)])
    res = model.solve(warm=first.basis)
    assert res.status == target.status == lp.OPTIMAL
    assert abs(res.objective - target.objective) < 1e-9
    # the new column had negative reduced cost, so the objective dropped
    assert res.objective < first.objective + 1e-9


def test_row_addition_weakly_increases_objective():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        costs = [rng.uniform(0.1, 2) for _ in range(n)]
        model, cols = build(
            costs,
            [(0.0, 10.0)] * n,
            [(lp.GREATER, rng.uniform(1, 4), [1.0] * n)],
        )
        before = model.solve()
        assert before.status == lp.OPTIMAL
        model.add_row(
            lp.GREATER,
            rng.uniform(1, 5),
            [(c, rng.uniform(0.2, 1.0)) for c in cols],
        )
        after = model.solve(warm=before.basis)
        assert after.status == lp.OPTIMAL
        assert after.objective >= before.objective - 1e-9


def _random_lp(rng, n, m):
    costs = [rng.uniform(-2, 2) for _ in range(n)]
    bounds = [(0.0, rng.uniform(1, 5)) for _ in range(n)]
    rows = []
    for _ in range(m):
        # equalities in bulk make random systems infeasible almost surely,
        # so keep them rare
        roll = rng.random()
        sense = lp.EQUAL if roll < 0.15 else (lp.LESS if roll < 0.6 else lp.GREATER)
        coefs = [rng.uniform(-1, 1) for _ in range(n)]
        # keep rhs achievable-ish so a fair share of instances are feasible
        point = [rng.uniform(0, ub) for _, ub in bounds]
        activity = sum(a * p for a, p in zip(coefs, point))
        rhs = activity + (rng.uniform(-0.5, 0.5) if sense != lp.EQUAL else 0.0)
        rows.append((sense, rhs, coefs))
    return costs, bounds, rows


def _check_certificate(costs, bounds, rows, res):
    """Verify optimality from first principles: feasibility, dual
    feasibility, complementary slackness, strong duality with bound
    terms.  Independent of the simplex internals."""
    tol = 1e-6
    n = len(costs)
    x = [res.x[j] for j in range(n)]
    y = [res.duals[i] for i in range(len(rows))]
    for j, (lo, hi) in enumerate(bounds):
        assert lo - tol <= x[j] <= hi + tol
    dual_obj = 0.0
    for (sense, rhs, coefs), yi in zip(rows, y):
        act = sum(a * xj for a, xj in zip(coefs, x))
        if sense == lp.GREATER:
            assert act >= rhs - tol
            assert yi >= -tol
        elif sense == lp.LESS:
            assert act <= rhs + tol
            assert yi <= tol
        else:
            assert abs(act - rhs) <= tol
        if abs(yi) > tol:
            assert abs(act - rhs) <= tol  # slack rows carry no price
        dual_obj += yi * rhs
    for j in range(n):
        rc = costs[j] - sum(rows[i][2][j] * y[i] for i in range(len(rows)))
        lo, hi = bounds[j]
        if x[j] > lo + tol and x[j] < hi - tol:
            assert abs(rc) <= tol
        elif x[j] <= lo + tol and x[j] < hi - tol:
            assert rc >= -tol
        elif x[j] >= hi - tol and x[j] > lo + tol:
            assert rc <= tol
        dual_obj += max(rc, 0.0) * lo + min(rc, 0.0) * hi
    assert abs(dual_obj - res.objective) <= 1e-5 * (1 + abs(res.objective))


def test_optimality_certificates_on_random_lps():
    rng = random.Random(2024)
    solved = 0
    for _ in range(60):
        n = rng.randint(2, 8)
        m = rng.randint(1, 6)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, _ = build(costs, bounds, rows)
        res = model.solve()
        if res.status == lp.OPTIMAL:
            _check_certificate(costs, bounds, rows, res)
            solved += 1
    assert solved >= 30  # the generator must not degenerate


def test_against_scipy_on_dense_lps():
    sp = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    agreements = 0
    for trial in range(40):
        n = rng.randint(2, 50)
        m = rng.randint(1, 50)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, _ = build(costs, bounds, rows)
        mine = model.solve()

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for sense, rhs, coefs in rows:
            if sense == lp.LESS:
                a_ub.append(coefs)
                b_ub.append(rhs)
            elif sense == lp.GREATER:
                a_ub.append([-a for a in coefs])
                b_ub.append(-rhs)
            else:
                a_eq.append(coefs)
                b_eq.append(rhs)
        ref = sp.linprog(
            c=costs,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=bounds,
            method="highs",
        )
        if ref.status == 0:
            assert mine.status == lp.OPTIMAL, trial
            assert abs(mine.objective - ref.fun) < 1e-6 * (1 + abs(ref.fun))
            agreements += 1
        elif ref.status == 2:
            assert mine.status == lp.INFEASIBLE, trial
    assert agreements >= 15


def test_warm_start_survives_growth():
    model = lp.LinearProgram()
    x = model.add_variable(1.0, 0.0, INF)
    r = model.add_row(lp.GREATER, 1.0, [(x, 1.0)])
    first = model.solve()
    y = model.add_variable(0.5, 0.0, INF, entries=[(r, 1.0)])
    model.add_row(lp.LESS, 0.8, [(y, 1.0)])
    res = model.solve(warm=first.basis)
    assert res.status == lp.OPTIMAL
    # y fills to its row cap 0.8, x covers the remainder of the >= row
    assert abs(res.objective - (0.5 * 0.8 + 0.2)) < 1e-9


def test_set_bounds_deactivates_column():
    model = lp.LinearProgram()
    x = model.add_variable(1.0, 0.0, INF)
    y = model.add_variable(3.0, 0.0, INF)
    model.add_row(lp.GREATER, 2.0, [(x, 1.0), (y, 1.0)])
    assert abs(model.solve().objective - 2.0) < 1e-9
    model.set_bounds(x, 0.0, 0.0)
    res = model.solve()
    assert abs(res.objective - 6.0) < 1e-9
    assert res.x[x] == 0.0


# ------------------------------------------------------------ warm re-solves


@pytest.fixture
def spy(monkeypatch):
    """Counts, per solve path, how often the simplex entered it."""
    calls = {"phase1": 0, "dual": 0, "cold": 0}
    iterate = lp._Simplex._iterate
    dual_phase = lp._Simplex._dual_phase
    cold_basis = lp._Simplex._cold_basis

    def spy_iterate(self, phase):
        calls["phase1"] += phase == 1
        return iterate(self, phase)

    def spy_dual(self):
        calls["dual"] += 1
        return dual_phase(self)

    def spy_cold(self):
        calls["cold"] += 1
        return cold_basis(self)

    monkeypatch.setattr(lp._Simplex, "_iterate", spy_iterate)
    monkeypatch.setattr(lp._Simplex, "_dual_phase", spy_dual)
    monkeypatch.setattr(lp._Simplex, "_cold_basis", spy_cold)
    return calls


def _tightened_lps(seed, count):
    """Optimal random bounded LPs, each with one interior variable's bound
    moved past its value: the old basis stays dual feasible but is no
    longer primal feasible.  Yields (model, cols, costs, bounds, rows, basis)."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n, m = rng.randint(3, 12), rng.randint(2, 10)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, cols = build(costs, bounds, rows)
        first = model.solve()
        if first.status != lp.OPTIMAL:
            continue
        inner = [
            j for j in range(n)
            if bounds[j][0] + 1e-3 < first.x[cols[j]] < bounds[j][1] - 1e-3
        ]
        if not inner:
            continue
        j = rng.choice(inner)
        lo, hi = bounds[j]
        value = first.x[cols[j]]
        if rng.random() < 0.5:
            bounds[j] = (lo, lo + 0.5 * (value - lo))
        else:
            bounds[j] = (value + 0.5 * (hi - value), hi)
        model.set_bounds(cols[j], *bounds[j])
        made += 1
        yield model, cols, costs, bounds, rows, first.basis


def test_bound_change_re_solves_warm_without_phase_one(spy):
    optimal = 0
    for model, _, costs, bounds, rows, basis in _tightened_lps(5, 40):
        cold = build(costs, bounds, rows)[0].solve()
        before = dict(spy)
        warm = model.solve(warm=basis)
        assert warm.status == cold.status
        if warm.status != lp.OPTIMAL:
            continue  # only phase 1 may call a changed LP infeasible
        optimal += 1
        assert abs(warm.objective - cold.objective) <= 1e-7 * (1 + abs(cold.objective))
        _check_certificate(costs, bounds, rows, warm)
        assert spy["dual"] == before["dual"] + 1
        assert spy["phase1"] == before["phase1"]
        assert spy["cold"] == before["cold"]
    assert optimal >= 25


def test_warm_basis_that_is_not_dual_feasible_solves_cold(spy):
    checked = 0
    for model, cols, costs, bounds, rows, basis in _tightened_lps(17, 20):
        # a new column priced below zero at its lower bound breaks dual
        # feasibility of the old basis
        coefs = [1.0] * len(rows)
        costs.append(-10.0)
        bounds.append((0.0, 1.0))
        for (_, _, row), a in zip(rows, coefs):
            row.append(a)
        cols.append(model.add_variable(-10.0, 0.0, 1.0, entries=list(enumerate(coefs))))
        cold = build(costs, bounds, rows)[0].solve()
        before = dict(spy)
        warm = model.solve(warm=basis)
        assert spy["dual"] == before["dual"]
        assert spy["cold"] == before["cold"] + 1
        assert warm.status == cold.status
        if warm.status == lp.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-7 * (1 + abs(cold.objective))
            # the model's new column sits after the logicals; reorder x
            warm.x = warm.x[cols]
            _check_certificate(costs, bounds, rows, warm)
            checked += 1
    assert checked >= 5


# ------------------------------------------------------------ certificate


def test_mispriced_basis_is_not_reported_optimal(monkeypatch):
    # a phase 2 that stops at once leaves both columns priced below zero
    model, _ = build([-1.0, -1.0], [(0.0, 4.0)] * 2, [(lp.LESS, 5.0, [1.0, 1.0])])
    monkeypatch.setattr(lp._Simplex, "_iterate", lambda self, phase: lp.OPTIMAL)
    assert model.solve().status == lp.UNCERTIFIED


def test_bound_violating_basis_is_not_reported_optimal(monkeypatch):
    model, cols = build([1.0], [(0.0, INF)], [(lp.GREATER, 3.0, [1.0])])
    first = model.solve()
    model.set_bounds(cols[0], 0.0, 2.0)  # x = 3 stays basic above its bound
    monkeypatch.setattr(lp._Simplex, "_primal_feasible", lambda self: True)
    assert model.solve(warm=first.basis).status == lp.UNCERTIFIED
    monkeypatch.undo()
    assert model.solve(warm=first.basis).status == lp.INFEASIBLE

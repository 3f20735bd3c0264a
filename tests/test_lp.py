import copy
import ctypes
import math
import random

import numpy as np
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
    # phase 1 takes one pivot, and the pricing passes that end each phase
    # count for nothing
    assert res.iterations == 1
    again = model.solve(warm=res.basis)
    assert (again.status, again.iterations) == (lp.OPTIMAL, 0)


def test_unbounded():
    model, _ = build([-1.0], [(0.0, INF)], [])
    assert model.solve().status == lp.UNBOUNDED


def test_infeasible():
    model, _ = build(
        [1.0], [(0.0, 1.0)], [(lp.GREATER, 2.0, [1.0])]
    )
    assert model.solve().status == lp.INFEASIBLE


def test_iteration_limit_reports(monkeypatch):
    monkeypatch.setattr(lp, "ITER_LIMIT", 1)
    rng = random.Random(1)
    costs = [rng.uniform(-1, 1) for _ in range(12)]
    rows = [
        (lp.LESS, rng.uniform(5, 10), [rng.uniform(0, 1) for _ in range(12)])
        for _ in range(12)
    ]
    model, _ = build(costs, [(0.0, INF)] * 12, rows)
    res = model.solve()
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
        # a bound's term only for a reduced cost of that bound's sign, as
        # 0 * inf is nan; one within tol prices the column at its value
        if rc > tol:
            dual_obj += rc * lo
        elif rc < -tol:
            dual_obj += rc * hi
        else:
            dual_obj += rc * x[j]
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


def test_optimality_certificates_with_infinite_bounds():
    # columns in [0, inf) or (-inf, 0], each with the cost sign that keeps
    # the objective bounded below by 0
    rng = random.Random(41)
    solved = 0
    for _ in range(60):
        n, m = rng.randint(2, 8), rng.randint(1, 6)
        _, _, rows = _random_lp(rng, n, m)
        bounds = [rng.choice([(0.0, INF), (-INF, 0.0)]) for _ in range(n)]
        costs = [rng.uniform(0.0, 2.0) * (1.0 if lo == 0.0 else -1.0) for lo, _ in bounds]
        model, _ = build(costs, bounds, rows)
        res = model.solve()
        if res.status == lp.OPTIMAL:
            _check_certificate(costs, bounds, rows, res)
            solved += 1
    assert solved >= 20


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


def test_empty_model_solves_through_the_simplex():
    # no rows: each column goes to the bound its cost favours through
    # bound flips, and the snapshot records the bound it went to
    costs = [1.0, -1.0, -1.0, 2.0, -0.5 * lp.RC_TOL, 0.0]
    bounds = [(0.0, 2.0), (0.0, 4.0), (-INF, 3.0), (-1.0, INF), (0.0, INF), (-INF, 0.0)]
    model, cols = build(costs, bounds, [])
    res = model.solve()
    assert res.status == lp.OPTIMAL
    # a cost within RC_TOL stays at its bound (column 4), as in every LP
    assert res.x.tolist() == [0.0, 4.0, 3.0, -1.0, 0.0, 0.0]
    assert res.basis.basic == [] and res.duals.size == 0
    assert res.basis.status == [lp.AT_LB, lp.AT_UB, lp.AT_UB, lp.AT_LB, lp.AT_LB, lp.AT_UB]
    assert res.objective == -9.0
    assert res.iterations == 1  # the flip of column 1
    again = model.solve(warm=res.basis)
    assert (again.x.tolist(), again.iterations) == (res.x.tolist(), 0)
    # a row added later starts on its own logical and re-solves warm
    model.add_row(lp.GREATER, 1.0, [(cols[0], 1.0), (cols[3], 1.0)])
    grown = model.solve(warm=res.basis)
    ref = build(costs, bounds, [(lp.GREATER, 1.0, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])])[0].solve()
    assert grown.status == ref.status == lp.OPTIMAL
    assert grown.objective == pytest.approx(ref.objective) == -7.0
    # no columns at all
    assert lp.LinearProgram().solve().status == lp.OPTIMAL
    # a cost that favours an infinite bound is unbounded
    for cost, lo, hi in ((-1.0, 0.0, INF), (1.0, -INF, 0.0)):
        model, _ = build(costs + [cost], bounds + [(lo, hi)], [])
        assert model.solve().status == lp.UNBOUNDED


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


def test_set_bounds_rejects_a_free_column():
    # min x s.t. x >= 1, x <= 5: freeing x would leave the simplex a
    # column with no bound to sit at, as add_variable refuses
    model, (x,) = build([1.0], [(0.0, INF)], [(lp.GREATER, 1.0, [1.0]), (lp.LESS, 5.0, [1.0])])
    with pytest.raises(ValueError, match="free variables"):
        model.set_bounds(x, -INF, INF)
    res = model.solve()
    assert res.status == lp.OPTIMAL and res.objective == 1.0
    model.set_bounds(x, -INF, 3.0)  # one infinite bound is fine
    assert model.solve().objective == 1.0


# ------------------------------------------------------------ warm re-solves


@pytest.fixture
def spy(monkeypatch):
    """Counts, per solve path, how often the simplex entered it."""
    calls = {"phase1": 0, "dual": 0, "cold": 0}
    relax_logicals = lp._Simplex._relax_logicals
    dual_phase = lp._Simplex._dual_phase
    cold_basis = lp._Simplex._cold_basis

    def spy_relax(self):
        calls["phase1"] += 1
        return relax_logicals(self)

    def spy_dual(self):
        calls["dual"] += 1
        return dual_phase(self)

    def spy_cold(self):
        calls["cold"] += 1
        return cold_basis(self)

    monkeypatch.setattr(lp._Simplex, "_relax_logicals", spy_relax)
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


def test_added_row_re_solves_through_the_dual_phase(spy):
    # the added row's logical starts basic, which keeps every reduced cost,
    # so a row the old optimum violates is a job for the dual phase
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        costs = [rng.uniform(0.1, 2) for _ in range(n)]
        bounds = [(0.0, 10.0)] * n
        rows = [(lp.GREATER, rng.uniform(1, 4), [1.0] * n)]
        model, cols = build(costs, bounds, rows)
        before = model.solve()
        assert before.status == lp.OPTIMAL
        row = (lp.GREATER, rng.uniform(1, 5), [rng.uniform(0.2, 1.0) for _ in cols])
        if sum(a * before.x[c] for a, c in zip(row[2], cols)) >= row[1] - 1e-6:
            continue  # the old optimum already satisfies the row
        model.add_row(row[0], row[1], list(zip(cols, row[2])))
        rows.append(row)
        cold = build(costs, bounds, rows)[0].solve()
        if cold.status != lp.OPTIMAL:
            continue  # only phase 1 may call the grown LP infeasible
        seen = dict(spy)
        warm = model.solve(warm=before.basis)
        assert spy["dual"] == seen["dual"] + 1
        assert spy["phase1"] == seen["phase1"]
        assert spy["cold"] == seen["cold"]
        assert warm.status == lp.OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        _check_certificate(costs, bounds, rows, warm)
        checked += 1
    assert checked >= 30


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


def test_zero_pivot_guard():
    model, _ = build([1.0], [(0.0, INF)], [(lp.GREATER, 3.0, [1.0])])
    s = lp._Simplex(model, None)
    s._cold_basis()
    refactors = []
    s._refactor = lambda: refactors.append(s.zero_pivots)
    small = lp.PIVOT_TOL / 2
    # three sub-tolerance pivot elements in a row each refactor; a usable
    # one (PIVOT_TOL itself is) resets the count
    for sign in (1.0, -1.0):
        assert all(s._zero_pivot(sign * small) for _ in range(3))
        assert not s._zero_pivot(sign * lp.PIVOT_TOL)
        assert s.zero_pivots == 0
    assert refactors == [1, 2, 3] * 2
    assert all(s._zero_pivot(small) for _ in range(3))
    with pytest.raises(lp.SingularBasisError, match="persistent zero pivot"):
        s._zero_pivot(0.0)
    assert len(refactors) == 9


# ------------------------------------------------------------ ratio test


def _steps(xb, lo, hi, dw):
    """(row, step, bound it leaves at) of every row that can leave."""
    steps = []
    for p in range(len(dw)):
        if dw[p] > lp.PIVOT_TOL:
            if lo[p] == -INF:
                continue
            t, to = (xb[p] - lo[p]) / dw[p], lp.AT_LB
        elif dw[p] < -lp.PIVOT_TOL:
            if hi[p] == INF:
                continue
            t, to = (xb[p] - hi[p]) / dw[p], lp.AT_UB
        else:
            continue
        steps.append((p, max(t, 0.0), to))
    return steps


def _window_rule(basic, xb, lo, hi, dw, t_flip, bland):
    """The primal ratio test in plain Python, the reference for
    ``_Simplex._ratio_test``; row p's basic column lies in [lo[p], hi[p]].
    One pass finds the smallest step; a second breaks the tie among the
    steps within PIVOT_TOL of it."""
    steps = _steps(xb, lo, hi, dw)
    t_min = min((t for _, t, _ in steps), default=INF)
    if not t_min < t_flip - lp.PIVOT_TOL:
        return t_flip, -1, lp.AT_LB
    best = None
    for p, t, to in steps:
        if t > t_min + lp.PIVOT_TOL:
            continue
        if best is not None:
            q = best[1]
            if bland and not basic[p] < basic[q]:
                continue
            if not bland and not abs(dw[p]) > abs(dw[q]):
                continue
        best = (t, p, to)
    return best


def _ratio_case(basic, xb, lo, hi, dw, t_flip, bland):
    """(kernel result, reference result), each with the step as a hex
    string so that -0.0 and 0.0 differ."""
    s = lp._Simplex(lp.LinearProgram(), None)
    s.basic, s.xb = list(basic), xb
    got = s._ratio_test(dw, t_flip, bland, lo, hi)
    want = _window_rule(basic, xb, lo, hi, dw, t_flip, bland)
    return (float(got[0]).hex(), *got[1:]), (float(want[0]).hex(), *want[1:])


def _random_ratio_case(rng):
    tol = lp.PIVOT_TOL
    m = rng.randint(1, 16)
    n = m + rng.randint(0, 12)
    lb = np.array([rng.choice([0.0, -1.0, -INF, 0.5]) for _ in range(n)])
    ub = np.array([max(lo, 0.0) + rng.choice([0.0, 1.0, INF, 2.5]) for lo in lb])
    # the shapes of a logical, relaxed in phase 1 or not, are common
    for j in range(n):
        if rng.random() < 0.4:
            lb[j], ub[j] = rng.choice([(0.0, INF), (-INF, 0.0), (0.0, 0.0)])
    basic = rng.sample(range(n), m)
    lo, hi = lb[basic], ub[basic]
    choices = [0.0, tol / 2, -tol / 2, 1.0, -1.0, 0.5, -2.0, 3e-3, -7.0]
    dw = np.array([rng.choice(choices) for _ in range(m)])
    if rng.random() < 0.5:
        dw = np.sort(np.abs(dw)) * np.sign(dw)  # growing |dw| in row order makes chains
    xb = np.empty(m)
    for p in range(m):
        bound = lo[p] if dw[p] > 0 else hi[p]
        if not np.isfinite(bound):
            bound = rng.choice([0.0, 1.0])
        # raw steps on a PIVOT_TOL/2 grid, including zero and negative ones
        step = rng.choice([-3, -1, 0, 1, 2, 3, 4, 5]) * tol / 2
        if rng.random() < 0.1:
            step = rng.uniform(0.0, 2.0)
        xb[p] = bound + step * dw[p]
    t_flip = rng.choice([INF, 0.0, tol, 2 * tol, 1.0, rng.uniform(0.0, 3.0)])
    return basic, xb, lo, hi, dw, t_flip, rng.random() < 0.5


def test_ratio_test_matches_the_window_rule():
    rng = random.Random(11)
    flips = 0
    for _ in range(4000):
        case = _random_ratio_case(rng)
        got, want = _ratio_case(*case)
        assert got == want, case
        flips += want[1] == -1
        # the step taken, a flip's too, is within PIVOT_TOL of the smallest
        basic, xb, lo, hi, dw = case[:5]
        t_min = min((t for _, t, _ in _steps(xb, lo, hi, dw)), default=INF)
        assert float.fromhex(got[0]) <= t_min + lp.PIVOT_TOL, case
    assert 1000 < flips < 3000  # both outcomes are common


def test_ratio_test_ties_within_pivot_tol_of_the_minimum():
    # steps 0, 0.9 tol and 1.8 tol with growing |dw|: the last step is
    # more than PIVOT_TOL above the smallest, so only rows 0 and 1 tie,
    # even though each step is within PIVOT_TOL of the one before
    tol = lp.PIVOT_TOL
    lb = np.zeros(3)
    ub = np.full(3, INF)
    dw = np.array([1.0, 2.0, 4.0])
    xb = np.array([0.0, 0.9 * tol, 1.8 * tol]) * dw
    for bland, row in ((False, 1), (True, 0)):
        got, want = _ratio_case([0, 1, 2], xb, lb, ub, dw, INF, bland)
        assert got == want
        assert got[1] == row
    # Bland mode takes the lowest variable id, not the first row
    got, _ = _ratio_case([2, 0, 1], xb, lb, ub, dw, INF, True)
    assert got[1] == 1
    # a larger step ahead of the smallest is outside the window
    xb2 = np.array([5.0, 0.0, 0.9 * tol])
    dw2 = np.array([1.0, 1.0, 3.0])
    got, want = _ratio_case([0, 1, 2], xb2, lb, ub, dw2, INF, False)
    assert got == want and got[1] == 2
    # equal |dw| in the window: the first row leaves
    got, _ = _ratio_case([0, 1, 2], xb2, lb, ub, np.array([1.0, 3.0, 3.0]), INF, False)
    assert got[1] == 1
    # a flip within PIVOT_TOL of the smallest step wins over the rows
    got, want = _ratio_case([0, 1, 2], xb, lb, ub, dw, 0.5 * tol, False)
    assert got == want and got[1] == -1


def test_ratio_test_with_infinite_basic_values():
    # inf - inf steps are nan: a nan step never leaves
    lb = np.array([0.0, -INF, 0.0])
    ub = np.array([INF, 0.0, 1.0])
    with np.errstate(invalid="ignore"):
        for xb in ([INF, -INF, 0.5], [-INF, 1.0, INF], [0.25, INF, -INF]):
            for dw in ([1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [2.0, 0.0, -1.0]):
                for t_flip in (INF, 1.0):
                    got, want = _ratio_case(
                        [0, 1, 2], np.array(xb), lb, ub, np.array(dw), t_flip, False
                    )
                    assert got == want, (xb, dw, t_flip)


def test_ratio_test_without_a_leaving_row():
    # an all-nan dw and a model with no rows both end in the flip (or,
    # at t_flip = inf, in an unbounded ray)
    lb, ub = np.zeros(3), np.ones(3)
    nan3, empty = np.full(3, np.nan), np.empty(0)
    for t_flip in (INF, 0.0, 1.0):
        flip = (float(t_flip).hex(), -1, lp.AT_LB)
        for bland in (False, True):
            got, want = _ratio_case([0, 1, 2], np.zeros(3), lb, ub, nan3, t_flip, bland)
            assert got == want == flip
            got, want = _ratio_case([], empty, empty, empty, empty, t_flip, bland)
            assert got == want == flip


# ------------------------------------------------------------ kept inverse


@pytest.fixture
def inversions(monkeypatch):
    """Counts the basis inversions of every solve."""
    calls = [0]
    inv = np.linalg.inv

    def counted(a):
        calls[0] += 1
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def _solve_counting(model, basis, inversions):
    before = inversions[0]
    res = model.solve(warm=basis)
    return res, inversions[0] - before


def _assert_same_solve(a, b):
    assert (a.status, a.iterations) == (b.status, b.iterations)
    if a.status == lp.OPTIMAL:
        assert a.x.tobytes() == b.x.tobytes()
        assert a.duals.tobytes() == b.duals.tobytes()
        assert (a.basis.basic, a.basis.status) == (b.basis.basic, b.basis.status)


def test_warm_re_solve_from_the_kept_inverse_matches_a_fresh_one(inversions):
    # the kept inverse carries the rounding of its updates, so a warm solve
    # from it may end on other bits than one from a fresh inverse, but
    # never on another status, and it is certified all the same
    rng = random.Random(31)
    reused = stale = 0
    for _ in range(40):
        n, m = rng.randint(3, 10), rng.randint(2, 8)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, cols = build(costs, bounds, rows)
        res = first = model.solve()
        for step in range(4):
            if res.status != lp.OPTIMAL:
                break
            # a priced-in column or a tightened bound: the basis keeps its columns
            if step % 2 == 0:
                coefs = [rng.uniform(-1, 1) for _ in range(m)]
                costs.append(rng.uniform(-2, 0))
                bounds.append((0.0, rng.uniform(1, 3)))
                for (_, _, row), a in zip(rows, coefs):
                    row.append(a)
                cols.append(model.add_variable(costs[-1], *bounds[-1], list(enumerate(coefs))))
            else:
                j = rng.randrange(len(cols))
                bounds[j] = (0.0, max(0.0, 0.5 * float(res.x[cols[j]])))
                model.set_bounds(cols[j], *bounds[j])
            clone = copy.deepcopy(model)
            clone._factor = None
            # now and then from an older basis, as a sibling node would
            basis = first.basis if step == 3 else res.basis
            factor = model._factor
            kept = factor is not None and factor[0] == tuple(basis.basic)
            stale += factor is not None and not kept
            res, mine = _solve_counting(model, basis, inversions)
            ref, theirs = _solve_counting(clone, basis, inversions)
            assert res.status == ref.status
            if res.status == lp.OPTIMAL:
                assert abs(res.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
                ordered = lp.LpResult(res.status, res.objective, res.x[cols], res.duals)
                _check_certificate(costs, bounds, rows, ordered)
            assert mine == theirs - kept
            reused += kept
    assert reused >= 40
    assert stale >= 5


def test_row_addition_retires_the_kept_inverse(inversions):
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        costs = [rng.uniform(0.1, 2) for _ in range(n)]
        bounds = [(0.0, 10.0)] * n
        rows = [(lp.GREATER, rng.uniform(1, 4), [1.0] * n)]
        model, cols = build(costs, bounds, rows)
        before = model.solve()
        assert model._factor is not None
        row = (lp.GREATER, rng.uniform(1, 5), [rng.uniform(0.2, 1.0) for _ in cols])
        model.add_row(row[0], row[1], list(zip(cols, row[2])))
        grown, _ = build(costs, bounds, rows + [row])
        after, mine = _solve_counting(model, before.basis, inversions)
        ref, theirs = _solve_counting(grown, before.basis, inversions)
        _assert_same_solve(after, ref)
        assert after.status == lp.OPTIMAL
        assert mine == theirs


def test_redundant_row_snapshot_holds_its_logical(inversions):
    # a repeated equality row ends phase 1 with its relaxed logical still
    # basic; it keeps its slot with its own bounds, so the basis names
    # model columns only and its inverse is kept
    model, _ = build(
        [1.0, 2.0],
        [(0.0, 4.0)] * 2,
        [(lp.EQUAL, 2.0, [1.0, 1.0]), (lp.EQUAL, 2.0, [1.0, 1.0])],
    )
    first = model.solve()
    assert first.status == lp.OPTIMAL
    assert first.basis.basic == [0, model.logical[1]]
    assert model._factor[0] == tuple(first.basis.basic)
    for basis in (first.basis, lp.Basis(first.basis.basic[:1], first.basis.status)):
        clone = copy.deepcopy(model)
        clone._factor = None
        res, mine = _solve_counting(model, basis, inversions)
        ref, theirs = _solve_counting(clone, basis, inversions)
        _assert_same_solve(res, ref)
        assert res.status == lp.OPTIMAL and res.objective == pytest.approx(2.0)
        assert mine == theirs - 1  # the warm re-solve takes the kept inverse
    # a -1 slot names no column: such a basis is refused, not read as the
    # last column
    assert not lp._Simplex(model, None)._load_warm(lp.Basis([0, -1], first.basis.status))


def _lp_with_a_repeated_row(rng):
    """A random LP over 0/+-1 data in which one row appears twice."""
    n, m = rng.randint(2, 8), rng.randint(1, 6)
    costs = [float(rng.randint(-2, 2)) for _ in range(n)]
    bounds = [(0.0, float(rng.randint(1, 3))) for _ in range(n)]
    rows = []
    for _ in range(m):
        sense = rng.choice([lp.EQUAL, lp.LESS, lp.GREATER])
        coefs = [float(rng.choice([0, 0, 1, -1])) for _ in range(n)]
        rows.append((sense, float(rng.randint(-2, 3)), coefs))
    rows.insert(rng.randint(0, m), rows[rng.randrange(m)])
    return costs, bounds, rows


def test_redundant_row_keeps_its_relaxed_logical_basic(monkeypatch, inversions):
    # phase 1 can end with the relaxed logical of a repeated row still
    # basic at its violated bound; it keeps its slot with its own bounds,
    # so the optimal basis names model columns and its inverse is kept
    left_basic = [False]
    iterate = lp._Simplex._iterate

    def spy(self, costs):
        st = iterate(self, costs)
        left_basic[0] |= costs is not self.c and bool(self.relaxed)
        return st

    monkeypatch.setattr(lp._Simplex, "_iterate", spy)
    rng = random.Random(3)
    reached = optimal = 0
    for _ in range(300):
        costs, bounds, rows = _lp_with_a_repeated_row(rng)
        model, _ = build(costs, bounds, rows)
        left_basic[0] = False
        res = model.solve()
        if res.status != lp.OPTIMAL:
            continue
        optimal += 1
        reached += left_basic[0]
        _check_certificate(costs, bounds, rows, res)
        assert all(0 <= j < model.ncols for j in res.basis.basic)
        assert model._factor[0] == tuple(res.basis.basic)
        again, inverted = _solve_counting(model, res.basis, inversions)
        # the basis is the kept one, and the certificate takes its inverse as is
        assert inverted == 0
        assert (again.status, again.iterations) == (lp.OPTIMAL, 0)
        assert again.objective == pytest.approx(res.objective, rel=1e-9, abs=1e-9)
        assert (again.basis.basic, again.basis.status) == (res.basis.basic, res.basis.status)
    assert optimal >= 100
    assert reached >= 20


def test_perturbed_kept_inverse_is_caught_and_refactored(inversions):
    # a kept inverse off by 1e-3 fails the certificate: through x when the
    # error reaches the basic values, through the basic reduced costs when
    # it reaches only the duals.  The solve then inverts afresh and ends
    # where a cold solve does.
    rng = random.Random(43)
    primal = dual = same_basis = 0
    for trial in range(80):
        n, m = rng.randint(4, 10), rng.randint(2, 7)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, _ = build(costs, bounds, rows)
        first = model.solve()
        if first.status != lp.OPTIMAL:
            continue
        basic, Binv, count = model._factor
        e = np.array([rng.uniform(-1, 1) for _ in range(m)])
        if trial % 2:
            # u v^T with v orthogonal to B^-1's right-hand side r = b - N x_N:
            # the basic values B^-1 r stay as they were, the duals move
            cb = model._c[list(basic)]
            if np.abs(cb).max() < 0.1:
                continue
            x_n = np.where(np.isin(np.arange(model.ncols), basic), 0.0, first.x)
            r = model._rhs[:m] - model._A[:m, : model.ncols] @ x_n
            v = e - (e @ r) / (r @ r) * r if r @ r > 0 else e
            error = np.outer(np.eye(m)[int(np.abs(cb).argmax())], v)
            dual += 1
        else:
            error = np.outer(e, [rng.uniform(-1, 1) for _ in range(m)])
            primal += 1
        error *= 1e-3 / np.abs(error).max()
        model._factor = (basic, Binv + error, count)
        res, inverted = _solve_counting(model, first.basis, inversions)
        assert inverted == 1, trial  # the refactor after the failed certificate
        cold = build(costs, bounds, rows)[0].solve()
        assert res.status == cold.status == lp.OPTIMAL, trial
        assert abs(res.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        _check_certificate(costs, bounds, rows, res)
        if sorted(res.basis.basic) == sorted(cold.basis.basic):
            same_basis += 1
            assert np.allclose(res.duals, cold.duals, rtol=0.0, atol=1e-9), trial
    assert primal >= 15 and dual >= 15 and same_basis >= 25


def test_warm_solves_invert_once_per_refactor_interval(monkeypatch, inversions):
    # the pivot count since the last fresh inverse is kept with the
    # inverse, so a chain of warm solves inverts once per _REFACTOR_EVERY
    # pivots, not once per solve
    every = 7
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", every)
    pivots = [0]
    pivot = lp._Simplex._pivot

    def counted(self, *args):
        pivots[0] += 1
        return pivot(self, *args)

    monkeypatch.setattr(lp._Simplex, "_pivot", counted)
    rng = random.Random(53)
    chains = inverted = 0
    for _ in range(10):
        n, m = rng.randint(4, 8), rng.randint(3, 6)
        costs, bounds, rows = _random_lp(rng, n, m)
        model, _ = build(costs, bounds, rows)
        res = model.solve()
        if res.status != lp.OPTIMAL:
            continue
        carried = model._factor[2]  # the cold solve's pivots since its last refactor
        assert 0 <= carried < every
        pivots[0] = inversions[0] = 0
        for _ in range(12):
            # a column priced in: the basis keeps its columns
            entries = [(i, rng.uniform(-1, 1)) for i in range(m)]
            model.add_variable(rng.uniform(-3, 0), 0.0, rng.uniform(1, 3), entries)
            res = model.solve(warm=res.basis)
            assert res.status == lp.OPTIMAL
        assert inversions[0] == (carried + pivots[0]) // every
        assert model._factor[2] == (carried + pivots[0]) % every
        chains += 1
        inverted += inversions[0]
    assert chains >= 5
    assert chains <= inverted < 12 * chains


def test_warm_load_matches_the_column_loops():
    # the column scans that set the statuses and the basic values, as
    # they were before they became array expressions: the reference
    rng = random.Random(5)
    loaded = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        lbs = [rng.choice([0.0, -1.0, -INF]) for _ in range(n)]
        # no free columns: those the model rejects
        ubs = [
            rng.choice([0.0, 3.0]) if lo == -INF else lo + rng.choice([0.0, 2.0, INF])
            for lo in lbs
        ]
        m = rng.randint(1, n - 1)
        model = lp.LinearProgram()
        cols = [model.add_variable(rng.uniform(-1, 1), lo, hi) for lo, hi in zip(lbs, ubs)]
        for _ in range(m):
            model.add_row(lp.LESS, rng.uniform(-2, 2), [(j, rng.uniform(-1, 1)) for j in cols])
        basic = rng.sample(range(model.ncols), m)
        kinds = [lp.AT_LB, lp.AT_UB, lp.BASIC]
        status = [rng.choice(kinds) for _ in range(rng.randint(0, model.ncols))]
        s = lp._Simplex(model, None)
        if not s._load_warm(lp.Basis(basic, status)):
            continue  # a singular basis matrix
        loaded += 1
        lb, ub = s.lb, s.ub
        want = []
        for j in range(s.n):
            if j < len(status) and status[j] != lp.BASIC:
                st = status[j]
                if st == lp.AT_LB and lb[j] == -INF:
                    st = lp.AT_UB
                elif st == lp.AT_UB and ub[j] == INF:
                    st = lp.AT_LB
            else:
                st = lp.AT_LB if lb[j] > -INF else lp.AT_UB
            want.append(lp.BASIC if j in basic else st)
        assert s.status.tolist() == want
        r = s.b.copy()
        at = [lb[j] if want[j] == lp.AT_LB else ub[j] for j in range(s.n)]
        nz = [j for j in range(s.n) if want[j] != lp.BASIC and at[j] != 0.0]
        if nz:
            r -= s.A[:, nz] @ np.asarray([at[j] for j in nz])
        assert (s.Binv @ r).tobytes() == s._basic_values().tobytes()
    assert loaded >= 150


class _Mallinfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


def test_large_arrays_are_mapped_after_a_larger_one_is_freed():
    """Importing kvcut pins glibc's mmap threshold at 1 MiB.

    Left dynamic, freeing a mapped 8 MiB array would raise the threshold
    to 8 MiB and put the next 2 MiB array on the heap, whose layout then
    decides the peak RSS.  The test starts from a trimmed heap: free space
    at the heap top, which the 4 MiB trim threshold lets earlier tests
    leave, serves a 2 MiB request before mmap is tried.

    It fails when ``_pin_malloc_thresholds`` makes no ``mallopt`` call,
    but not when it makes only one of its two: any ``mallopt`` call of
    either threshold switches off glibc's dynamic mmap threshold.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallinfo2 = libc.mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    mallinfo2.restype = _Mallinfo2
    libc.malloc_trim(0)
    big = np.ones(1 << 20)  # 8 MiB
    del big
    mapped = mallinfo2().hblkhd
    medium = np.ones(1 << 18)  # 2 MiB
    assert mallinfo2().hblkhd >= mapped + medium.nbytes


def test_freed_update_blocks_stay_on_the_heap():
    """The heap keeps freed blocks below the trim threshold for reuse.

    Importing kvcut pins glibc's trim threshold at 4 MiB.  Blocks just
    below the 1 MiB mmap threshold live on the heap: 1,011 x 128 floats
    here, about the size of the inverse update's m^2 temporary at
    m = 362.  Three of them freed together at the top must not be
    trimmed, or the next allocations fault them in again.  Trimmed at
    2 MiB, they are.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallinfo2 = libc.mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    mallinfo2.restype = _Mallinfo2
    libc.malloc_trim(0)  # start from a heap top with no free space to spare
    for _ in range(3):
        blocks = [np.ones((1011, 128)) for _ in range(3)]
        arena = mallinfo2().arena
        del blocks
        assert mallinfo2().arena == arena


# ------------------------------------------------------------ large models


def _sparse_model(rng, m, n):
    """A random model with m rows and m + n structural columns, 2-6 nonzeros
    per column: structural column i < m has a dominant entry in row i, so
    any set of them with the logicals of the other rows is a basis."""
    model = lp.LinearProgram()
    for i in range(m):
        model.add_row(rng.choice([lp.LESS, lp.GREATER, lp.EQUAL]), 0.0, [])
    for j in range(m + n):
        rows = rng.sample(range(m), rng.randint(2, 6))
        entries = [(i, rng.uniform(-1, 1)) for i in rows if i != j]
        if j < m:
            entries.append((j, rng.choice([-1.0, 1.0]) * rng.uniform(8, 10)))
        model.add_variable(rng.uniform(-1, 1), 0.0, 1.0, entries)
    return model


def test_singular_basis_raises():
    rng = random.Random(29)
    m = 256
    model = _sparse_model(rng, m, 0)
    # a structural column inside the span of row 0's logical
    twin = model.add_variable(1.0, 0.0, 1.0, [(0, 2.0)])
    s = lp._Simplex(model, None)
    s.basic = [model.logical[0], twin] + list(model.logical[2:])
    with pytest.raises(lp.SingularBasisError):
        s._inverse()
    s.basic = list(model.logical)
    assert s._inverse().tobytes() == np.eye(m).tobytes()


def test_add_row_rejects_an_entry_on_a_logical():
    model = lp.LinearProgram()
    x = model.add_variable(1.0, 0.0, 1.0)
    model.add_row(lp.GREATER, 1.0, [(x, 1.0)])
    with pytest.raises(ValueError, match="logical of row 0"):
        model.add_row(lp.LESS, 2.0, [(x, 1.0), (model.logical[0], 1.0)])
    with pytest.raises(IndexError):
        model.add_row(lp.LESS, 2.0, [(x, 1.0), (model.ncols, 1.0)])
    # a rejected row leaves the model as it was
    assert (model.nrows, model.ncols, model.row_sense) == (1, 2, [lp.GREATER])
    assert model.solve().objective == pytest.approx(1.0)


def _random_sparse_lp(rng, n, m):
    """Like _random_lp, with 2-5 nonzeros per row."""
    costs = [rng.uniform(-2, 2) for _ in range(n)]
    bounds = [(0.0, rng.uniform(1, 5)) for _ in range(n)]
    point = [rng.uniform(0, ub) for _, ub in bounds]
    return costs, bounds, [_random_sparse_row(rng, n, point) for _ in range(m)]


def _random_sparse_row(rng, n, point):
    roll = rng.random()
    sense = lp.EQUAL if roll < 0.1 else (lp.LESS if roll < 0.55 else lp.GREATER)
    coefs = [0.0] * n
    for j in rng.sample(range(n), rng.randint(2, 5)):
        coefs[j] = rng.uniform(-1, 1)
    activity = sum(a * p for a, p in zip(coefs, point))
    # mostly slack at the point, so that about a third of the models are
    # infeasible
    slack = rng.uniform(-0.15, 0.5)
    rhs = activity + {lp.LESS: slack, lp.GREATER: -slack, lp.EQUAL: 0.0}[sense]
    return sense, rhs, coefs


def _linprog(sp, costs, bounds, rows):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for sense, rhs, coefs in rows:
        if sense == lp.EQUAL:
            a_eq.append(coefs)
            b_eq.append(rhs)
        else:
            sign = 1.0 if sense == lp.LESS else -1.0
            a_ub.append([sign * a for a in coefs])
            b_ub.append(sign * rhs)
    return sp.linprog(
        c=costs, A_ub=a_ub or None, b_ub=b_ub or None, A_eq=a_eq or None,
        b_eq=b_eq or None, bounds=bounds, method="highs",
    )


def _agrees(sp, costs, bounds, rows, res, cols):
    """Whether res has scipy's status and objective; certifies an OPTIMAL,
    whose x at ``cols`` is in the order of ``costs``."""
    ref = _linprog(sp, costs, bounds, rows)
    assert ref.status in (0, 2)
    if ref.status == 2:
        return res.status == lp.INFEASIBLE
    assert res.status == lp.OPTIMAL
    ordered = lp.LpResult(res.status, res.objective, res.x[cols], res.duals)
    _check_certificate(costs, bounds, rows, ordered)
    return abs(res.objective - ref.fun) < 1e-6 * (1 + abs(ref.fun))


def test_large_sparse_lps_against_scipy_cold_and_warm(spy):
    # sparse LPs of 260-360 rows, solved cold and then warm after an
    # added column, a tightened bound and an added row
    sp = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    cold_optimal = infeasible = warm = 0
    for _ in range(12):
        m = rng.randint(260, 360)
        n = m + rng.randint(-20, 40)
        costs, bounds, rows = _random_sparse_lp(rng, n, m)
        model, cols = build(costs, bounds, rows)
        res = model.solve()
        assert _agrees(sp, costs, bounds, rows, res, cols)
        if res.status != lp.OPTIMAL:
            infeasible += 1
            continue
        cold_optimal += 1
        # a column priced below zero
        entries = [(i, rng.uniform(-1, 1)) for i in rng.sample(range(m), 4)]
        costs.append(-3.0)
        bounds.append((0.0, 2.0))
        for i, (_, _, coefs) in enumerate(rows):
            coefs.append(dict(entries).get(i, 0.0))
        cols.append(model.add_variable(-3.0, 0.0, 2.0, entries))
        res = model.solve(warm=res.basis)
        assert _agrees(sp, costs, bounds, rows, res, cols)
        if res.status != lp.OPTIMAL:
            continue
        # a bound moved past an interior value: the dual phase re-solves it
        inner = [j for j in range(n) if bounds[j][0] + 1e-3 < res.x[cols[j]] < bounds[j][1] - 1e-3]
        if not inner:
            continue
        j = rng.choice(inner)
        bounds[j] = (bounds[j][0], 0.5 * (bounds[j][0] + res.x[cols[j]]))
        model.set_bounds(cols[j], *bounds[j])
        dual_before = spy["dual"]
        res = model.solve(warm=res.basis)
        assert spy["dual"] == dual_before + 1
        assert _agrees(sp, costs, bounds, rows, res, cols)
        if res.status != lp.OPTIMAL:
            continue
        # a row the optimum violates by 0.2: its logical starts basic
        _, _, coefs = _random_sparse_row(rng, n + 1, list(res.x[cols]))
        row = (lp.GREATER, float(np.dot(coefs, res.x[cols])) + 0.2, coefs)
        model.add_row(row[0], row[1], [(cols[j], a) for j, a in enumerate(coefs) if a])
        rows.append(row)
        dual_before = spy["dual"]
        res = model.solve(warm=res.basis)
        assert spy["dual"] == dual_before + 1
        assert _agrees(sp, costs, bounds, rows, res, cols)
        warm += res.status == lp.OPTIMAL
    assert cold_optimal >= 6 and infeasible >= 1
    assert warm >= 4

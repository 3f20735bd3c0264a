"""Self-contained bounded-variable revised simplex.

Why not an off-the-shelf LP wrapper?  Column generation needs three things
most of them do not expose reliably: exact duals with fixed sign
conventions, cheap incremental column/row addition with stable ids, and
warm starts from a saved basis.  The models in this package are small (a
few hundred rows), so a dense revised simplex with an explicitly
maintained basis inverse is entirely adequate, and it keeps the numerical
behaviour deterministic across platforms.

Conventions
-----------
* Minimization only.
* Every row gets an internal "logical" variable with coefficient +1 whose
  bounds encode the sense: slack in [0, inf) for <=, in (-inf, 0] for >=,
  fixed at 0 for ==.  The system is then  A z = b  over all columns.
* Duals: for a minimization problem, >=-rows get duals >= 0, <=-rows get
  duals <= 0, equality rows are free.
* Infeasible starts are repaired by a phase-1 with per-row artificial
  columns; no dual rays are ever produced (the callers build their own
  high-cost recourse columns instead).
* Pricing is most-negative reduced cost, falling back to Bland's rule
  after a run of degenerate pivots, so the method always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7
RC_TOL = 1e-6
PIVOT_TOL = 1e-10
DEFAULT_ITER_LIMIT = 200_000
_REFACTOR_EVERY = 100
_BLAND_AFTER = 40  # consecutive degenerate pivots before switching to Bland

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

AT_LB, AT_UB, BASIC = 0, 1, 2

LESS, GREATER, EQUAL = "<=", ">=", "=="


class SingularBasisError(ArithmeticError):
    """The basis inverse could not be maintained; the model is numerically bad."""


@dataclass
class Basis:
    """Opaque warm-start token.

    ``basic`` holds one column id per row; -1 marks a row that was carried
    by a repair artificial when the snapshot was taken (redundant row).
    ``status`` holds AT_LB / AT_UB / BASIC per column id at snapshot time;
    columns created later default to their finite bound.
    """

    basic: list[int]
    status: list[int]


@dataclass
class LpResult:
    status: str
    objective: float = float("nan")
    x: Optional[np.ndarray] = None  # value per column id
    duals: Optional[np.ndarray] = None  # value per row id
    basis: Optional[Basis] = None
    iterations: int = 0
    phase1_infeasibility: float = 0.0


class LinearProgram:
    """A growable minimization LP: columns with bounds, rows with senses."""

    def __init__(self):
        self._ccap = 64
        self._rcap = 32
        self.ncols = 0
        self.nrows = 0
        self._A = np.zeros((self._rcap, self._ccap))
        self._c = np.zeros(self._ccap)
        self._lb = np.zeros(self._ccap)
        self._ub = np.zeros(self._ccap)
        self._rhs = np.zeros(self._rcap)
        self.row_sense: list[str] = []
        self.logical: list[int] = []  # column id of each row's logical

    def _grow_cols(self, need: int):
        new = self._ccap
        while new < need:
            new *= 2
        for name in ("_c", "_lb", "_ub"):
            arr = np.zeros(new)
            arr[: self.ncols] = getattr(self, name)[: self.ncols]
            setattr(self, name, arr)
        A = np.zeros((self._rcap, new))
        A[:, : self.ncols] = self._A[:, : self.ncols]
        self._A = A
        self._ccap = new

    def _grow_rows(self, need: int):
        new = self._rcap
        while new < need:
            new *= 2
        rhs = np.zeros(new)
        rhs[: self.nrows] = self._rhs[: self.nrows]
        self._rhs = rhs
        A = np.zeros((new, self._ccap))
        A[: self.nrows, :] = self._A[: self.nrows, :]
        self._A = A
        self._rcap = new

    def add_variable(
        self,
        cost: float,
        lb: float = 0.0,
        ub: float = INF,
        entries: Optional[Sequence[tuple[int, float]]] = None,
    ) -> int:
        """New column; ``entries`` are (row id, coefficient) pairs."""
        if lb > ub:
            raise ValueError("lb > ub")
        if lb == -INF and ub == INF:
            raise ValueError("free variables are not supported")
        if self.ncols == self._ccap:
            self._grow_cols(self.ncols + 1)
        j = self.ncols
        self.ncols += 1
        self._c[j] = cost
        self._lb[j] = lb
        self._ub[j] = ub
        if entries:
            for i, a in entries:
                if not (0 <= i < self.nrows):
                    raise IndexError(f"row {i} does not exist")
                self._A[i, j] = a
        return j

    def add_row(
        self, sense: str, rhs: float, entries: Sequence[tuple[int, float]]
    ) -> int:
        """New constraint over existing columns.  Returns the row id."""
        if sense not in (LESS, GREATER, EQUAL):
            raise ValueError(f"bad sense {sense!r}")
        if self.nrows == self._rcap:
            self._grow_rows(self.nrows + 1)
        i = self.nrows
        self.nrows += 1
        self._rhs[i] = rhs
        self.row_sense.append(sense)
        for j, a in entries:
            if not (0 <= j < self.ncols):
                raise IndexError(f"column {j} does not exist")
            self._A[i, j] = a
        if sense == LESS:
            lo, hi = 0.0, INF
        elif sense == GREATER:
            lo, hi = -INF, 0.0
        else:
            lo, hi = 0.0, 0.0
        lg = self.add_variable(0.0, lo, hi, entries=[(i, 1.0)])
        self.logical.append(lg)
        return i

    def set_bounds(self, col: int, lb: float, ub: float):
        if lb > ub:
            raise ValueError("lb > ub")
        self._lb[col] = lb
        self._ub[col] = ub

    def bounds(self, col: int) -> tuple[float, float]:
        return float(self._lb[col]), float(self._ub[col])

    def solve(
        self, warm: Optional[Basis] = None, iteration_limit: int = DEFAULT_ITER_LIMIT
    ) -> LpResult:
        return _Simplex(self, warm, iteration_limit).run()


class _Simplex:
    """One solve: a workspace over the model plus temporary repair artificials.

    Artificial columns live at virtual indices >= n (n = model columns);
    they are +-unit vectors, never re-enter the basis once driven out, and
    are forgotten when the solve finishes.
    """

    def __init__(self, lp: LinearProgram, warm: Optional[Basis], iteration_limit: int):
        self.lp = lp
        self.m = lp.nrows
        self.n = lp.ncols
        self.iteration_limit = iteration_limit
        self.A = lp._A[: self.m, : self.n]
        self.b = lp._rhs[: self.m].copy()
        self.c = lp._c[: self.n].copy()
        self.lb = lp._lb[: self.n].copy()
        self.ub = lp._ub[: self.n].copy()
        self.art_row: list[int] = []
        self.art_sign: list[float] = []
        self.art_ub = INF  # pinned to 0 for phase 2
        self.status = np.zeros(self.n, dtype=np.int8)
        self.basic: list[int] = []
        self.Binv = np.eye(self.m)
        self.x = np.zeros(self.n)
        self.xb = np.zeros(self.m)
        self.iters = 0
        self.pivots_since_refactor = 0
        self.warm = warm

    # -- column helpers (artificial-aware) ----------------------------------

    def col_vec(self, j: int) -> np.ndarray:
        if j < self.n:
            return self.A[:, j]
        v = np.zeros(self.m)
        k = j - self.n
        v[self.art_row[k]] = self.art_sign[k]
        return v

    def col_lb(self, j: int) -> float:
        return self.lb[j] if j < self.n else 0.0

    def col_ub(self, j: int) -> float:
        return self.ub[j] if j < self.n else self.art_ub

    def _new_artificial(self, row: int, sign: float) -> int:
        j = self.n + len(self.art_row)
        self.art_row.append(row)
        self.art_sign.append(sign)
        return j

    # -- basis setup ---------------------------------------------------------

    def _default_status(self, j: int) -> int:
        return AT_LB if self.lb[j] > -INF else AT_UB

    def _cold_basis(self):
        for j in range(self.n):
            self.status[j] = self._default_status(j)
        self.basic = list(self.lp.logical)
        for j in self.basic:
            self.status[j] = BASIC
        self.Binv = np.eye(self.m)
        self.art_row.clear()
        self.art_sign.clear()

    def _load_warm(self, warm: Basis) -> bool:
        if len(warm.basic) > self.m:
            return False
        slots = list(warm.basic) + [-1] * (self.m - len(warm.basic))
        seen = set()
        for j in slots:
            if j == -1:
                continue
            if not (0 <= j < self.n) or j in seen:
                return False
            seen.add(j)
        for j in range(self.n):
            if j < len(warm.status) and warm.status[j] != BASIC:
                st = warm.status[j]
                if st == AT_LB and self.lb[j] == -INF:
                    st = AT_UB
                elif st == AT_UB and self.ub[j] == INF:
                    st = AT_LB
                self.status[j] = st
            else:
                self.status[j] = self._default_status(j)
        self.basic = []
        pending = []
        B = np.zeros((self.m, self.m))
        for p, j in enumerate(slots):
            if j == -1:
                pending.append(p)
                B[p, p] = 1.0
                self.basic.append(-1)
            else:
                B[:, p] = self.col_vec(j)
                self.basic.append(j)
                self.status[j] = BASIC
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self.Binv)):
            return False
        # materialize placeholder artificials, oriented by their residual
        if pending:
            xb = self._basic_values()
            for p in pending:
                sign = 1.0 if xb[p] >= 0 else -1.0
                self.basic[p] = self._new_artificial(p, sign)
                if sign < 0:
                    self.Binv[p, :] *= -1.0
        return True

    def _basic_values(self) -> np.ndarray:
        """B^-1 (b - N x_N); nonbasic artificials always sit at 0."""
        r = self.b.copy()
        nz = [
            j
            for j in range(self.n)
            if self.status[j] != BASIC
            and (self.lb[j] if self.status[j] == AT_LB else self.ub[j]) != 0.0
        ]
        if nz:
            vals = np.asarray(
                [self.lb[j] if self.status[j] == AT_LB else self.ub[j] for j in nz]
            )
            r -= self.A[:, nz] @ vals
        return self.Binv @ r

    def _refresh(self):
        for j in range(self.n):
            if self.status[j] == AT_LB:
                self.x[j] = self.lb[j]
            elif self.status[j] == AT_UB:
                self.x[j] = self.ub[j]
        self.xb = self._basic_values()
        for p, j in enumerate(self.basic):
            if j < self.n:
                self.x[j] = self.xb[p]

    def _refactor(self):
        B = np.empty((self.m, self.m))
        for p, j in enumerate(self.basic):
            B[:, p] = self.col_vec(j)
        self.Binv = None  # free the old inverse before inv() allocates its own
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix became singular") from None
        self.pivots_since_refactor = 0
        self._refresh()

    def _install_artificials(self):
        """Swap out-of-bound basic logicals for artificials (cold start repair).

        Only called when the basis is the all-logical identity, so updating
        the inverse is a matter of sign flips.
        """
        for p in range(self.m):
            j = self.basic[p]
            v = self.xb[p]
            lo, hi = self.col_lb(j), self.col_ub(j)
            if lo - FEAS_TOL <= v <= hi + FEAS_TOL:
                continue
            if v < lo:
                self.status[j] = AT_LB
                self.x[j] = lo
                excess = v - lo
            else:
                self.status[j] = AT_UB
                self.x[j] = hi
                excess = v - hi
            sign = 1.0 if excess >= 0 else -1.0
            self.basic[p] = self._new_artificial(p, sign)
            if sign < 0:
                self.Binv[p, :] *= -1.0
            self.xb[p] = abs(excess)

    # -- the simplex loop ------------------------------------------------------

    def _phase_costs(self, phase: int) -> np.ndarray:
        nart = len(self.art_row)
        full = np.zeros(self.n + nart)
        if phase == 1:
            full[self.n :] = 1.0
        else:
            full[: self.n] = self.c
        return full

    def _iterate(self, phase: int) -> str:
        costs = self._phase_costs(phase)
        m, n = self.m, self.n
        fixed = self.lb == self.ub
        bland = False
        degenerate_streak = 0
        bad_pivot_retries = 0
        while True:
            if self.iters >= self.iteration_limit:
                return ITERATION_LIMIT
            self.iters += 1
            cb = costs[self.basic]
            y = cb @ self.Binv
            d = costs[:n] - y @ self.A
            viol = np.zeros(n)
            sel_lb = (self.status == AT_LB) & ~fixed & (d < -RC_TOL)
            sel_ub = (self.status == AT_UB) & ~fixed & (d > RC_TOL)
            viol[sel_lb] = -d[sel_lb]
            viol[sel_ub] = d[sel_ub]
            if not viol.any():
                return OPTIMAL
            if bland:
                enter = int(np.nonzero(viol)[0][0])
            else:
                enter = int(np.argmax(viol))
            direction = 1.0 if sel_lb[enter] else -1.0
            w = self.Binv @ self.A[:, enter]
            dw = direction * w
            t_best = self.ub[enter] - self.lb[enter]
            leave_pos = -1
            leave_to = AT_LB
            for p in range(m):
                jb = self.basic[p]
                if dw[p] > PIVOT_TOL:
                    lo = self.col_lb(jb)
                    if lo == -INF:
                        continue
                    t = (self.xb[p] - lo) / dw[p]
                    to = AT_LB
                elif dw[p] < -PIVOT_TOL:
                    hi = self.col_ub(jb)
                    if hi == INF:
                        continue
                    t = (self.xb[p] - hi) / dw[p]
                    to = AT_UB
                else:
                    continue
                t = max(t, 0.0)
                if leave_pos >= 0 and abs(t - t_best) <= PIVOT_TOL:
                    # ties: Bland mode picks the lowest variable id (the
                    # anti-cycling guarantee needs it), otherwise prefer the
                    # numerically safest pivot element
                    if bland:
                        better = jb < self.basic[leave_pos]
                    else:
                        better = abs(dw[p]) > abs(dw[leave_pos])
                    if better:
                        t_best, leave_pos, leave_to = t, p, to
                elif t < t_best - PIVOT_TOL:
                    t_best, leave_pos, leave_to = t, p, to
            if leave_pos == -1 and t_best == INF:
                return UNBOUNDED
            if t_best <= PIVOT_TOL:
                degenerate_streak += 1
                if degenerate_streak >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False
            if leave_pos == -1:
                # bound flip: entering runs across to its other bound
                self.xb -= t_best * dw
                for p, jb in enumerate(self.basic):
                    if jb < n:
                        self.x[jb] = self.xb[p]
                self.status[enter] = AT_UB if direction > 0 else AT_LB
                self.x[enter] = self.ub[enter] if direction > 0 else self.lb[enter]
                continue
            if abs(w[leave_pos]) < PIVOT_TOL:
                bad_pivot_retries += 1
                if bad_pivot_retries > 3:
                    raise SingularBasisError("persistent zero pivot")
                self._refactor()
                continue
            bad_pivot_retries = 0
            out = self.basic[leave_pos]
            if out < n:
                self.status[out] = leave_to
                self.x[out] = self.col_lb(out) if leave_to == AT_LB else self.col_ub(out)
            self.xb -= t_best * dw
            start = self.lb[enter] if direction > 0 else self.ub[enter]
            self.basic[leave_pos] = enter
            self.status[enter] = BASIC
            self.xb[leave_pos] = start + direction * t_best
            self.x[enter] = self.xb[leave_pos]
            self._update_inverse(leave_pos, w)
            self.pivots_since_refactor += 1
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                for p, jb in enumerate(self.basic):
                    if jb < n:
                        self.x[jb] = self.xb[p]

    def _update_inverse(self, p: int, w: np.ndarray):
        """Rank-one update of B^-1 after the column with B^-1 a = w enters row p."""
        self.Binv[p, :] /= w[p]
        mask = np.abs(w) > 0.0
        mask[p] = False
        if mask.any():
            self.Binv[mask, :] -= np.outer(w[mask], self.Binv[p, :])

    def _phase1_value(self) -> float:
        return sum(abs(self.xb[p]) for p, j in enumerate(self.basic) if j >= self.n)

    def _drive_out_artificials(self):
        """After phase 1: pivot basic artificials (all at ~0) onto model columns.

        Rows where no model column has a nonzero pivot element are linearly
        dependent in the current column set; their artificial stays basic at
        zero (pinned) and shows up as -1 in the basis snapshot.
        """
        for p in range(self.m):
            if self.basic[p] < self.n:
                continue
            row = self.Binv[p, :] @ self.A
            cand = -1
            for q in range(self.n):
                if self.status[q] != BASIC and self.lb[q] < self.ub[q] and abs(row[q]) > 1e-8:
                    cand = q
                    break
            if cand == -1:
                continue
            w = self.Binv @ self.A[:, cand]
            if abs(w[p]) < PIVOT_TOL:
                continue
            val = self.lb[cand] if self.status[cand] == AT_LB else self.ub[cand]
            self.basic[p] = cand
            self.status[cand] = BASIC
            self._update_inverse(p, w)
            # degenerate swap: the artificial sat at 0, the entering column
            # keeps its current value
            self.xb[p] = val
            self.x[cand] = val

    # -- driver -----------------------------------------------------------------

    def run(self) -> LpResult:
        if self.m == 0:
            x = np.empty(self.n)
            for j in range(self.n):
                if self.c[j] > 0 or (self.c[j] == 0 and self.lb[j] > -INF):
                    x[j] = self.lb[j]
                else:
                    x[j] = self.ub[j]
            if not np.all(np.isfinite(x)):
                return LpResult(UNBOUNDED)
            status = [AT_LB if self.lb[j] > -INF else AT_UB for j in range(self.n)]
            return LpResult(OPTIMAL, float(self.c @ x), x, np.zeros(0), Basis([], status))
        loaded = self.warm is not None and self._load_warm(self.warm)
        if not loaded:
            self._cold_basis()
        self._refresh()
        infeasible_start = False
        for p in range(self.m):
            j = self.basic[p]
            lo, hi = self.col_lb(j), self.col_ub(j)
            if not (lo - FEAS_TOL <= self.xb[p] <= hi + FEAS_TOL):
                infeasible_start = True
                break
        if infeasible_start:
            if loaded:
                self._cold_basis()
                self._refresh()
            self._install_artificials()
        if any(j >= self.n for j in self.basic) and self._phase1_value() > FEAS_TOL:
            st = self._iterate(1)
            if st != OPTIMAL:
                return LpResult(st, iterations=self.iters)
            scale = max(1.0, float(np.max(np.abs(self.b))) if self.m else 1.0)
            infeas = self._phase1_value()
            if infeas > FEAS_TOL * scale:
                return LpResult(INFEASIBLE, iterations=self.iters, phase1_infeasibility=infeas)
        self.art_ub = 0.0
        self._drive_out_artificials()
        st = self._iterate(2)
        if st != OPTIMAL:
            return LpResult(st, iterations=self.iters)
        self._refactor()
        obj = float(self.c @ self.x[: self.n])
        duals = self._phase_costs(2)[self.basic] @ self.Binv
        snapshot = Basis(
            [j if j < self.n else -1 for j in self.basic],
            [int(s) for s in self.status],
        )
        return LpResult(OPTIMAL, obj, self.x[: self.n].copy(), duals, snapshot, self.iters)

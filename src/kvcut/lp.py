"""Self-contained bounded-variable revised simplex.

Why not an off-the-shelf LP wrapper?  Column generation needs three things
most of them do not expose reliably: exact duals with fixed sign
conventions, cheap incremental column/row addition with stable ids, and
warm starts from a saved basis.  The simplex keeps an explicit dense
basis inverse B^-1: B is inverted whole, and FTRAN, BTRAN, pricing and
the rank-one update are dense expressions over all rows, with no gather.

The pivot path is fixed by the model, the solves before it on the same
model and the BLAS build: the inverse and the products with it round
differently under different BLAS thread counts, so the work counters
(and on degenerate models the basis reached) can depend on the thread
count.

The per-solve and per-pivot work is kept small:

* The inverse is maintained, not recomputed.  It is inverted afresh
  every _REFACTOR_EVERY pivots, counted across solves, and when a
  certificate fails (Forrest & Tomlin 1972; Maros 2003).  A certified
  OPTIMAL leaves it on the model with that count, and the next solve
  takes both instead of inverting when its warm basis lists the same
  column in every row -- the usual case in column generation.  A column
  never changes once written, ``add_row`` adds a row, and bounds do not
  enter the basis matrix, so it is still an inverse of that basis, up
  to the rounding of its updates, which the certificate bounds.
* A sign vector marks each nonbasic column free to rise (+1) or to fall
  (-1), so pricing is one product and one argmin.
* The ratio test, basic values and status set-up are array expressions.
  Both ratio tests take the smallest step, let every step within
  PIVOT_TOL of it tie, and break the tie by the lowest id in Bland mode
  or else by the largest pivot element (Harris 1973; Bland 1977).
* A degenerate pivot (a step of 0) leaves the basic values as they are.
* Each element of B^-1 the update touches gets one multiply and one
  subtract.
* A warm-start token is the basic list and a ``bytes`` of one status
  per column.  A solve holds the basis as one index array, so each
  gather by it (costs, bounds, values, reduced costs) indexes with that
  array, not with a Python list that numpy would convert first.
* Phase 2's last pricing pass, which found no entering column, priced
  the final basis with y = c_B B^-1 and d = c - y A.  The certificate
  takes that d, and the solve reports that y, instead of computing
  both again: they would be the same floats.  Each phase starts them
  at nan, so a phase that stops without a pricing pass is not certified.

Conventions
-----------
* Minimization only.
* Every row gets an internal "logical" variable with coefficient +1 whose
  bounds encode the sense: slack in [0, inf) for <=, in (-inf, 0] for >=,
  fixed at 0 for ==.  The system is then  A z = b  over all columns.
  ``add_row`` refuses an entry in a logical's column, so each logical
  stays the unit column of its row, and the all-logical cold basis has
  B = I.
* Duals: for a minimization problem, >=-rows get duals >= 0, <=-rows get
  duals <= 0, equality rows are free.
* A warm basis names model columns only.  A row added since the
  snapshot starts on its own logical, which leaves the reduced costs as
  they were, so a violated cut -- like a bound change -- leaves a basis
  that is primal infeasible but dual feasible.  A dual phase re-optimises
  it: a bounded dual simplex that pivots until the basis is primal
  feasible, after which phase 2 finishes.
* Phase 1 belongs to cold starts only: any other infeasible start, like
  a token that does not load, is solved cold.  It adds no columns.  Each
  basic logical outside its bounds is relaxed instead: the bound it lies
  beyond moves to infinity, the other bound moves to the violated one,
  and it costs -1 below or +1 above, so phase 1 drives it back to the
  violated bound, where it leaves the basis with its own bounds.  One
  that ends phase 1 still basic, at that bound, belongs to a redundant
  row and keeps its slot with its own bounds.  Every basis matrix is
  thus ``A[:, basic]`` over model columns.  No dual rays are ever
  produced (the callers build their own high-cost recourse columns
  instead).  A dual phase that finds no entering column hands over to a
  cold phase 1 too, so phase 1 is the one certificate of infeasibility.
* Pricing is most-negative reduced cost, falling back to Bland's rule
  after a run of degenerate pivots, so the method always terminates.
* Both phases change the basis through one pivot step.  ``iterations``
  counts pivots and bound flips, not pricing passes or zero-pivot refactors.
* Every OPTIMAL is certified by residuals computed from A, whatever the
  inverse: row residuals A x - b and variable bounds within FEAS_TOL,
  the reduced-cost signs of the nonbasic columns within RC_TOL, and the
  reduced costs of the basic columns within RC_TOL of zero (d = c - y A
  is a product with A too).  An inverse
  that has drifted from B^-1 fails the first (through x) or the last
  (through the duals).  A basis that fails is inverted afresh and gets
  one more round of phase 2; failing again, the solve reports
  UNCERTIFIED.  A basis that cannot be inverted, or a fourth pivot
  element in a row below PIVOT_TOL, ends the solve as SINGULAR.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7
RC_TOL = 1e-6
PIVOT_TOL = 1e-10
ITER_LIMIT = 200_000  # iterations per solve before it gives up
_REFACTOR_EVERY = 100
_BLAND_AFTER = 40  # consecutive degenerate pivots before switching to Bland

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
UNCERTIFIED = "uncertified"  # phase 2 ended twice at a basis that failed the certificate
SINGULAR = "singular"  # the basis inverse could not be maintained

AT_LB, AT_UB, BASIC = 0, 1, 2

LESS, GREATER, EQUAL = "<=", ">=", "=="


class SingularBasisError(ArithmeticError):
    """The basis inverse could not be maintained; ``solve`` reports SINGULAR."""


@dataclass
class Basis:
    """Opaque warm-start token.

    ``basic`` holds one model column id per row; rows added later start
    on their own logicals.  ``status`` holds AT_LB / AT_UB / BASIC per
    column id at snapshot time, one byte each; columns created later
    default to their finite bound.
    """

    basic: list[int]
    status: bytes


@dataclass
class LpResult:
    status: str
    objective: float = float("nan")
    x: Optional[np.ndarray] = None  # value per column id
    duals: Optional[np.ndarray] = None  # value per row id
    basis: Optional[Basis] = None
    iterations: int = 0  # pivots and bound flips


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
        self.logical: list[int] = []  # column id of each row's logical
        # (basic column id per row, B^-1, pivots since B^-1 was last
        # inverted afresh) of the last certified solve
        self._factor: Optional[tuple[tuple[int, ...], np.ndarray, int]] = None

    def _grow(self, rows: int, cols: int):
        """Room for at least ``rows`` rows and ``cols`` columns.

        Each capacity grows by a quarter, not double: a column-generation
        master grows a few rows or columns at a time, and doubling could
        leave half of A spare.
        """
        rcap, ccap = self._rcap, self._ccap
        while rcap < rows:
            rcap += max(1, rcap // 4)
        while ccap < cols:
            ccap += max(1, ccap // 4)
        for name in ("_c", "_lb", "_ub"):
            arr = np.zeros(ccap)
            arr[: self.ncols] = getattr(self, name)[: self.ncols]
            setattr(self, name, arr)
        rhs = np.zeros(rcap)
        rhs[: self.nrows] = self._rhs[: self.nrows]
        self._rhs = rhs
        A = np.zeros((rcap, ccap))
        A[: self.nrows, : self.ncols] = self._A[: self.nrows, : self.ncols]
        self._A = A
        self._rcap, self._ccap = rcap, ccap

    def add_variable(
        self,
        cost: float,
        lb: float = 0.0,
        ub: float = INF,
        entries: Optional[Sequence[tuple[int, float]]] = None,
    ) -> int:
        """New column; ``entries`` are (row id, coefficient) pairs.

        A row out of range is refused before the column is added.
        """
        if lb > ub:
            raise ValueError("lb > ub")
        if lb == -INF and ub == INF:
            raise ValueError("free variables are not supported")
        entries = entries or ()
        for i, _ in entries:
            if not (0 <= i < self.nrows):
                raise IndexError(f"row {i} does not exist")
        if self.ncols == self._ccap:
            self._grow(self.nrows, self.ncols + 1)
        j = self.ncols
        self.ncols += 1
        self._c[j] = cost
        self._lb[j] = lb
        self._ub[j] = ub
        column = self._A[:, j]
        for i, a in entries:
            column[i] = a
        return j

    def add_row(
        self, sense: str, rhs: float, entries: Sequence[tuple[int, float]]
    ) -> int:
        """New constraint over existing columns.  Returns the row id."""
        if sense not in (LESS, GREATER, EQUAL):
            raise ValueError(f"bad sense {sense!r}")
        logical = self.logical  # ascending: each row's logical is the newest column
        for j, _ in entries:
            if not (0 <= j < self.ncols):
                raise IndexError(f"column {j} does not exist")
            r = bisect_left(logical, j)
            if r < len(logical) and logical[r] == j:
                # the cold basis takes every logical to be +1 in its own
                # row and 0 elsewhere, so that B = I
                raise ValueError(f"column {j} is the logical of row {r}")
        if self.nrows == self._rcap:
            self._grow(self.nrows + 1, self.ncols)
        i = self.nrows
        self.nrows += 1
        self._rhs[i] = rhs
        row = self._A[i]
        for j, a in entries:
            row[j] = a
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
        if lb == -INF and ub == INF:
            raise ValueError("free variables are not supported")
        self._lb[col] = lb
        self._ub[col] = ub

    def solve(self, warm: Optional[Basis] = None) -> LpResult:
        simplex = _Simplex(self, warm)
        try:
            return simplex.run()
        except SingularBasisError:
            return LpResult(SINGULAR, iterations=simplex.iters)


def _nans(size: int) -> np.ndarray:
    """A fresh array of nan (``np.full`` takes twice as long at this size)."""
    out = np.empty(size)
    out.fill(np.nan)
    return out


class _Simplex:
    """One solve: a workspace over the model's columns.

    Phase 1 relaxes the bounds of some basic logicals in the workspace's
    own copies of ``lb`` and ``ub``; ``relaxed`` maps each such column to
    the bound it lay beyond, and empties as they leave the basis.
    """

    def __init__(self, lp: LinearProgram, warm: Optional[Basis]):
        self.lp = lp
        self.m = lp.nrows
        self.n = lp.ncols
        self.A = lp._A[: self.m, : self.n]
        self.b = lp._rhs[: self.m].copy()
        self.c = lp._c[: self.n].copy()
        self.lb = lp._lb[: self.n].copy()
        self.ub = lp._ub[: self.n].copy()
        self.free = self.lb < self.ub
        self.relaxed: dict[int, int] = {}
        self.status = np.zeros(self.n, dtype=np.int8)
        # +1 for a nonbasic column free to rise from its lower bound, -1
        # for one free to fall from its upper bound, 0 otherwise; a
        # column is mispriced where sign * d < -RC_TOL
        self.sign = np.zeros(self.n)
        self.basic = np.zeros(0, dtype=np.intp)  # column id per row
        self.Binv: Optional[np.ndarray] = None  # set with the basis
        self.x = np.zeros(self.n)
        self.xb = np.zeros(self.m)
        # row prices and reduced costs of _iterate's last pricing pass; nan
        # until a pass has run, so no certificate holds without one
        self.y = _nans(self.m)
        self.d = _nans(self.n)
        self.iters = 0
        self.pivots_since_refactor = 0
        self.zero_pivots = 0  # sub-tolerance pivot elements in a row
        self.warm = warm

    # -- basis setup ---------------------------------------------------------

    def _cold_basis(self):
        self.status[:] = np.where(self.lb > -INF, AT_LB, AT_UB)
        self.basic = np.array(self.lp.logical, dtype=np.intp)
        self.status[self.basic] = BASIC
        self.Binv = np.eye(self.m)
        self.pivots_since_refactor = 0

    def _load_warm(self, warm: Basis) -> bool:
        # a row added since the snapshot starts on its own logical
        listed = list(warm.basic) + self.lp.logical[len(warm.basic) :]
        if len(listed) > self.m or len(set(listed)) < len(listed):
            return False
        if listed and not (min(listed) >= 0 and max(listed) < self.n):
            return False
        basic = np.array(listed, dtype=np.intp)
        # a column starts at its finite bound, except that one recorded at
        # a finite upper bound stays there
        self.status[:] = np.where(self.lb > -INF, AT_LB, AT_UB)
        recorded = np.frombuffer(warm.status[: self.n], dtype=np.int8)
        k = len(recorded)
        np.copyto(
            self.status[:k],
            np.where(self.ub[:k] < INF, AT_UB, AT_LB),
            where=recorded == AT_UB,
        )
        self.status[basic] = BASIC
        self.basic = basic
        factor, self.lp._factor = self.lp._factor, None
        if factor and factor[0] == tuple(listed):
            _, self.Binv, self.pivots_since_refactor = factor
        else:
            try:
                self.Binv = self._inverse()
            except SingularBasisError:
                return False
        return bool(np.isfinite(self.Binv).all())

    def _basic_values(self) -> np.ndarray:
        """B^-1 (b - N x_N)."""
        r = self.b.copy()
        at = np.where(self.status == AT_LB, self.lb, self.ub)
        nz = np.flatnonzero((self.status != BASIC) & (at != 0.0))
        if nz.size:
            r -= self.A[:, nz] @ at[nz]
        return self.Binv @ r

    def _primal_feasible(self) -> bool:
        lo, hi = self.lb[self.basic], self.ub[self.basic]
        return bool(((lo - FEAS_TOL <= self.xb) & (self.xb <= hi + FEAS_TOL)).all())

    def _refresh(self):
        at_lb, at_ub = self.status == AT_LB, self.status == AT_UB
        np.copyto(self.x, self.lb, where=at_lb)
        np.copyto(self.x, self.ub, where=at_ub)
        # free at its lower bound minus free at its upper bound: +1, -1 or 0
        np.subtract(self.free & at_lb, self.free & at_ub, out=self.sign, dtype=float)
        self.xb = self._basic_values()
        self.x[self.basic] = self.xb

    def _refactor(self):
        self.Binv = self._inverse()
        self.pivots_since_refactor = 0
        self._refresh()

    def _inverse(self) -> np.ndarray:
        """B^-1 of ``A[:, basic]``; raises SingularBasisError if B is singular."""
        try:
            return np.linalg.inv(self.A[:, self.basic])
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix became singular") from None

    def _relax_logicals(self) -> np.ndarray:
        """Relax each basic logical outside its bounds; returns the phase-1 costs.

        Called on the cold, all-logical basis.  A logical below its lower
        bound gets the bounds (-inf, lower] and cost -1, one above its
        upper bound [upper, inf) and cost +1: phase 1 moves it towards
        the violated bound, and it leaves the basis on reaching it.
        """
        basic = self.basic
        lo, hi = self.lb[basic], self.ub[basic]
        below = self.xb < lo - FEAS_TOL
        above = self.xb > hi + FEAS_TOL
        down, up = basic[below], basic[above]
        self.lb[down], self.ub[down] = -INF, lo[below]
        self.lb[up], self.ub[up] = hi[above], INF
        costs = np.zeros(self.n)
        costs[down], costs[up] = -1.0, 1.0
        self.relaxed = dict.fromkeys(down.tolist(), AT_LB)
        self.relaxed.update(dict.fromkeys(up.tolist(), AT_UB))
        return costs

    def _unrelax(self, j: int) -> int:
        """Give relaxed column j its own bounds back; returns the bound it lay beyond."""
        self.lb[j], self.ub[j] = self.lp._lb[j], self.lp._ub[j]
        return self.relaxed.pop(j)

    # -- the simplex loop ------------------------------------------------------

    def _iterate(self, costs: np.ndarray) -> str:
        """Primal simplex under ``costs``, where a relaxed column that leaves is set to cost 0."""
        # cost and bounds of each row's basic column, kept in step with pivots
        cb = costs[self.basic]
        lo, hi = self.lb[self.basic], self.ub[self.basic]
        bland = False
        streak = 0  # degenerate pivots in a row
        self.zero_pivots = 0
        self.y = _nans(self.m)  # no prices left from an earlier phase
        self.d = _nans(self.n)
        if not self.n:
            return OPTIMAL
        while True:
            if self.iters >= ITER_LIMIT:
                return ITERATION_LIMIT
            self.y = cb @ self.Binv
            self.d = costs - self.y @ self.A
            sd = self.sign * self.d
            enter = int(sd.argmin())
            if not sd[enter] < -RC_TOL:
                return OPTIMAL
            if bland:
                enter = int((sd < -RC_TOL).argmax())
            direction = float(self.sign[enter])
            w = self.Binv @ self.A[:, enter]
            dw = w if direction > 0.0 else -w
            t_best, leave_pos, leave_to = self._ratio_test(
                dw, self.ub[enter] - self.lb[enter], bland, lo, hi
            )
            if leave_pos == -1 and t_best == INF:
                return UNBOUNDED
            streak = streak + 1 if t_best <= PIVOT_TOL else 0
            bland = streak >= _BLAND_AFTER
            if leave_pos == -1:
                # bound flip: entering runs across to its other bound
                self.iters += 1
                self.xb -= t_best * dw
                self.status[enter] = AT_UB if direction > 0 else AT_LB
                self.x[enter] = self.ub[enter] if direction > 0 else self.lb[enter]
                self.sign[enter] = -direction
                continue
            if self._zero_pivot(w[leave_pos]):
                continue
            out = self.basic.item(leave_pos)
            if out in self.relaxed:
                leave_to = self._unrelax(out)
                costs[out] = 0.0
            cb[leave_pos] = costs[enter]
            lo[leave_pos], hi[leave_pos] = self.lb[enter], self.ub[enter]
            self._pivot(leave_pos, enter, w, direction * t_best, leave_to)

    def _zero_pivot(self, pivot: float) -> bool:
        """Refactor instead on a pivot element below PIVOT_TOL; the fourth in a row raises."""
        if abs(pivot) < PIVOT_TOL:
            self.zero_pivots += 1
            if self.zero_pivots > 3:
                raise SingularBasisError("persistent zero pivot")
            self._refactor()
            return True
        self.zero_pivots = 0
        return False

    def _pivot(self, p: int, q: int, w: np.ndarray, theta: float, leave_to: int):
        """The one basis change: column q (B^-1 a_q = w) enters row p, moving by
        theta from its bound, and row p's column leaves at ``leave_to``."""
        out = self.basic.item(p)
        self.status[out] = leave_to
        self.x[out] = self.lb[out] if leave_to == AT_LB else self.ub[out]
        if theta:  # most pivots are degenerate and leave xb as it is
            self.xb -= theta * w
        self.xb[p] = self.x[q] + theta
        self.iters += 1
        self.basic[p] = q
        self.status[q] = BASIC
        self.sign[q] = 0.0
        if self.free[out]:
            self.sign[out] = 1.0 if leave_to == AT_LB else -1.0
        self._update_inverse(p, w)
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    def _ratio_test(
        self, dw: np.ndarray, t_flip: float, bland: bool, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[float, int, int]:
        """Primal ratio test for moving the basic values by -t dw, t >= 0.

        ``lo`` and ``hi`` are the bounds of each row's basic column.
        Returns (t, leaving row, bound it leaves at), or (t_flip, -1, AT_LB)
        when the entering column reaches its other bound first.  A row with
        |dw| > PIVOT_TOL gets the step max(t, 0.0); any other row gets nan,
        and a row heading for an infinite bound gets inf or nan, so it never
        leaves.  The rule is the dual phase's: the entering column flips
        unless the smallest step t_min is more than PIVOT_TOL below t_flip;
        otherwise the rows with a step within PIVOT_TOL of t_min tie, and
        the lowest variable id leaves in Bland mode (the anti-cycling
        guarantee needs it), otherwise the largest |dw| (the numerically
        safest pivot), the first row on equal values.
        """
        size = np.abs(dw)
        # nan is no step: fmin skips it, and no window holds it
        t = (self.xb - np.where(dw > 0.0, lo, hi)) / np.where(size > PIVOT_TOL, dw, np.nan)
        np.copyto(t, 0.0, where=t < 0.0)  # max(t, 0.0): keeps -0.0 and nan
        t_min = np.fmin.reduce(t, initial=INF).item()  # ignores nan
        if not t_min < t_flip - PIVOT_TOL:
            return t_flip, -1, AT_LB
        window = t <= t_min + PIVOT_TOL
        if bland:
            ties = np.flatnonzero(window)
            i = int(ties[np.argmin(np.take(self.basic, ties))])
        else:
            # the first largest |dw| in the window; outside it, -1 never wins
            i = int(np.where(window, size, -1.0).argmax())
        return t[i].item(), i, AT_LB if dw[i] > 0.0 else AT_UB

    def _update_inverse(self, p: int, w: np.ndarray):
        """Rank-one update of B^-1 after the column with B^-1 a = w enters row p.

        All of B^-1 is updated in one expression.  Its temporary, the
        outer product, holds m^2 floats: 207 KB at the 161 rows of the
        benchmark's largest master.
        """
        pivot_row = self.Binv[p] / w[p]
        self.Binv -= w[:, None] * pivot_row
        self.Binv[p] = pivot_row

    def _reduced_costs(self) -> np.ndarray:
        """Reduced costs of the phase-2 costs."""
        return self.c - self.c[self.basic] @ self.Binv @ self.A

    def _dual_feasible(self) -> bool:
        """Whether the basis prices out under the phase-2 costs."""
        return not (self.sign * self._reduced_costs() < -RC_TOL).any()

    def _dual_phase(self) -> str:
        """Bounded dual simplex from a dual feasible, primal infeasible basis.

        Each pivot moves the most violated basic variable to its violated
        bound and brings in the column chosen by the textbook dual ratio
        test, which keeps every reduced-cost sign.  Returns OPTIMAL once
        the basis is primal feasible, ITERATION_LIMIT at the cap, or
        INFEASIBLE when a violated row has no entering column (for
        phase 1 to confirm).
        """
        bland = False
        streak = 0  # degenerate pivots in a row
        self.zero_pivots = 0
        while True:
            basic = self.basic
            lo, hi = self.lb[basic], self.ub[basic]
            excess = np.maximum(lo - self.xb, self.xb - hi)
            violated = excess > FEAS_TOL
            if not violated.any():
                return OPTIMAL
            if self.iters >= ITER_LIMIT:
                return ITERATION_LIMIT
            if bland:
                rows = np.flatnonzero(violated)
                r = int(rows[np.argmin(basic[rows])])
            else:
                r = int(np.argmax(excess))
            to_lb = self.xb[r] < lo[r]
            d = self._reduced_costs()
            alpha = self.Binv[r] @ self.A
            # x_r rises to its lower bound (or falls to its upper bound)
            # when a column at its lower bound with alpha < 0 (> 0) rises,
            # or one at its upper bound with alpha > 0 (< 0) falls
            rise = -alpha if to_lb else alpha
            cand = np.flatnonzero(self.sign * rise > PIVOT_TOL)
            if cand.size == 0:
                return INFEASIBLE
            slack = np.maximum(self.sign[cand] * d[cand], 0.0)
            ratio = slack / np.abs(alpha[cand])
            step = float(ratio.min())
            ties = cand[ratio <= step + PIVOT_TOL]
            # Bland mode takes the lowest column id, otherwise the
            # numerically safest pivot element
            q = int(ties[0]) if bland else int(ties[np.argmax(np.abs(alpha[ties]))])
            streak = streak + 1 if step <= PIVOT_TOL else 0
            bland = streak >= _BLAND_AFTER
            w = self.Binv @ self.A[:, q]
            if self._zero_pivot(w[r]):
                continue
            target = lo[r] if to_lb else hi[r]
            theta = (self.xb[r] - target) / w[r]  # signed move of x_q
            self._pivot(r, q, w, theta, AT_LB if to_lb else AT_UB)

    def _certified(self, d: np.ndarray) -> bool:
        """Whether x and the reduced costs d = c - y A of row prices y are
        optimal, checked against A."""
        x = self.x
        if (np.abs(self.A @ x - self.b) > FEAS_TOL).any():
            return False
        if (x < self.lb - FEAS_TOL).any() or (x > self.ub + FEAS_TOL).any():
            return False
        if (self.sign * d < -RC_TOL).any():
            return False
        return bool((np.abs(d[self.basic]) <= RC_TOL).all())

    # -- driver -----------------------------------------------------------------

    def run(self) -> LpResult:
        loaded = self.warm is not None and self._load_warm(self.warm)
        if loaded:
            self._refresh()
            if not self._primal_feasible():
                st = self._dual_phase() if self._dual_feasible() else INFEASIBLE
                if st == ITERATION_LIMIT:
                    return LpResult(st, iterations=self.iters)
                # not dual feasible, or infeasible by the dual ratio test:
                # restart cold and let phase 1 decide
                loaded = st == OPTIMAL
        if not loaded:
            self._cold_basis()
            self._refresh()
            costs = self._relax_logicals()
            if self.relaxed:
                st = self._iterate(costs)
                if st != OPTIMAL:
                    return LpResult(st, iterations=self.iters)
                left = sum(
                    abs(self.xb[p])
                    for p, j in enumerate(self.basic.tolist())
                    if j in self.relaxed
                )
                if left > FEAS_TOL * max(1.0, float(np.max(np.abs(self.b)))):
                    return LpResult(INFEASIBLE, iterations=self.iters)
                # a redundant row's logical can end phase 1 basic at about
                # its violated bound: it stays basic, with its own bounds
                for j in list(self.relaxed):
                    self._unrelax(j)
        for fresh in (False, True):  # once more from a fresh inverse if the certificate fails
            if fresh:
                self._refactor()
            st = self._iterate(self.c)
            if st != OPTIMAL:
                return LpResult(st, iterations=self.iters)
            self.x[self.basic] = self.xb
            # phase 2 priced the final basis last, with cb = c[basic]
            if self._certified(self.d):
                break
        else:
            return LpResult(UNCERTIFIED, iterations=self.iters)
        obj = float(self.c @ self.x)
        basic = self.basic.tolist()
        # the next warm solve from this basis takes this inverse as is
        self.lp._factor = (tuple(basic), self.Binv, self.pivots_since_refactor)
        snapshot = Basis(basic, self.status.tobytes())
        return LpResult(OPTIMAL, obj, self.x.copy(), self.y, snapshot, self.iters)

"""Self-contained bounded-variable revised simplex.

Why not an off-the-shelf LP wrapper?  Column generation needs three things
most of them do not expose reliably: exact duals with fixed sign
conventions, cheap incremental column/row addition with stable ids, and
warm starts from a saved basis.  The simplex keeps an explicit basis
inverse B^-1, on one of two kernels chosen per solve by the row count m:

* Below STRUCTURED_ROWS rows -- the masters of column generation, up to
  about 230 rows here -- a dense kernel: B is inverted whole, and FTRAN,
  BTRAN, pricing and the rank-one update are dense expressions over all
  rows, with no gather.
* From STRUCTURED_ROWS rows on -- the lab's compact LPs, 348-1,011 rows
  -- a structured kernel.  A basic logical is the unit column of its
  row.  With R_L the rows whose logicals are basic, R_S the other rows
  (the bump) and S the basic structural columns, only A[R_S, S] is
  inverted: with Y = A[R_S, S]^-1, B^-1 is the identity on the
  logicals, Y on (S, R_S), -A[R_L, S] Y on (logicals, R_S) and 0 on
  (S, R_L).  From the all-logical cold start at most one structural
  column enters per pivot, so the bump stays small: about 160 of the
  1,011 rows of bcspwr01 at k=4, after 258 pivots.  FTRAN runs over the
  nonzeros of a_q, BTRAN over the bump's columns of B^-1 (the others
  hold unit vectors), pricing y A over A's nonzeros, and the update of
  the column-major B^-1 in place over the columns where the pivot row
  is nonzero.  Forrest & Tomlin (1972) and Suhl & Suhl (1990) factor the
  bump; here it is inverted explicitly.

STRUCTURED_ROWS is a measured crossover.  Per pivot, over whole solves on
one BLAS thread of a shared 2-vCPU host (two runs each; the spread is
the noise), the structured kernel cost against the dense one: on
compact LPs, +7% to +44% at 112-126 rows, 0% to -18% at 176, -25% to
-43% at 218-262, -46% to -75% at 371-453, and -70% to -87% on the
benchmark's 348-1,011; on masters, whose columns are denser and whose
many short warm solves each gather A's nonzeros again, +105% at 105
rows, +24% to +71% at 189-235 and -1% at 333.  The switch sits above
every master of the benchmark (at most 161 rows) and below every compact
LP (at least 348).

The pivot path is fixed by the model, the solves before it on the same
model and the BLAS build: the inverse and the products with it round
differently under different BLAS thread counts, so the work counters
(and on degenerate models the basis reached) can depend on the thread
count.

Both kernels keep their per-solve and per-pivot work small:

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
* The ratio test, basic values and status set-up are array expressions
  with the same float operations as a scan in row or column order; the
  ratio test scans in Python only when the smallest steps tie.
* Each element of B^-1 the update touches gets one multiply and one
  subtract.

Conventions
-----------
* Minimization only.
* Every row gets an internal "logical" variable with coefficient +1 whose
  bounds encode the sense: slack in [0, inf) for <=, in (-inf, 0] for >=,
  fixed at 0 for ==.  The system is then  A z = b  over all columns.
  ``add_row`` refuses an entry in a logical's column, so each logical
  stays the unit column of its row, as the cold basis and the bump
  inverse assume.
* Duals: for a minimization problem, >=-rows get duals >= 0, <=-rows get
  duals <= 0, equality rows are free.
* A warm basis names model columns only.  A row added since the
  snapshot starts on its own logical, which leaves the reduced costs as
  they were, so a violated cut -- like a bound change -- leaves a basis
  that is primal infeasible but dual feasible.  A dual phase re-optimises
  it: a bounded dual simplex that pivots until the basis is primal
  feasible, after which phase 2 finishes.
* Phase 1 belongs to cold starts only: any other infeasible start is
  solved cold.  It adds no columns.  Each basic logical outside its
  bounds is relaxed instead: the bound it lies beyond moves to infinity,
  the other bound moves to the violated one, and it costs -1 below or +1
  above, so phase 1 drives it back to the violated bound, where it
  leaves the basis with its own bounds.  One that ends phase 1 still
  basic, at that bound, belongs to a redundant row and keeps its slot
  with its own bounds.  Every basis matrix is thus ``A[:, basic]`` over
  model columns.  No dual rays are ever produced (the callers build their
  own high-cost recourse columns instead).  A dual phase that finds no
  entering column hands over to a cold phase 1 too, so phase 1 is the
  one certificate of infeasibility.
* Pricing is most-negative reduced cost, falling back to Bland's rule
  after a run of degenerate pivots, so the method always terminates.
* Both phases change the basis through one pivot step.  ``iterations``
  counts pivots and bound flips, not pricing passes or zero-pivot refactors.
* Every OPTIMAL is certified by residuals computed from A, whatever the
  inverse: row residuals A x - b and variable bounds within FEAS_TOL,
  the reduced-cost signs of the nonbasic columns within RC_TOL, and the
  reduced costs of the basic columns within RC_TOL of zero.  An inverse
  that has drifted from B^-1 fails the first (through x) or the last
  (through the duals).  A basis that fails is inverted afresh and gets
  one more round of phase 2; failing again, the solve reports
  UNCERTIFIED.
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
STRUCTURED_ROWS = 256  # m0: a model with this many rows takes the structured kernel

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
UNCERTIFIED = "uncertified"  # phase 2 ended twice at a basis that failed the certificate

AT_LB, AT_UB, BASIC = 0, 1, 2

LESS, GREATER, EQUAL = "<=", ">=", "=="


class SingularBasisError(ArithmeticError):
    """The basis inverse could not be maintained; the model is numerically bad."""


@dataclass
class Basis:
    """Opaque warm-start token.

    ``basic`` holds one model column id per row; rows added later start
    on their own logicals.  ``status`` holds AT_LB / AT_UB / BASIC per
    column id at snapshot time; columns created later default to their
    finite bound.
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
        self.row_sense: list[str] = []
        self.logical: list[int] = []  # column id of each row's logical
        # (basic column id per row, B^-1, pivots since B^-1 was last
        # inverted afresh) of the last certified solve
        self._factor: Optional[tuple[tuple[int, ...], np.ndarray, int]] = None

    def _grow_cols(self, need: int):
        # by a quarter, not double: the lab's 1,011 x 1,167 compact LP
        # would otherwise carry a 1,024 x 2,048 matrix
        new = self._ccap
        while new < need:
            new += max(1, new // 4)
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
        logical = self.logical  # ascending: each row's logical is the newest column
        for j, _ in entries:
            if not (0 <= j < self.ncols):
                raise IndexError(f"column {j} does not exist")
            r = bisect_left(logical, j)
            if r < len(logical) and logical[r] == j:
                # the bump inverse and the cold basis take every logical
                # to be +1 in its own row and 0 elsewhere
                raise ValueError(f"column {j} is the logical of row {r}")
        if self.nrows == self._rcap:
            self._grow_rows(self.nrows + 1)
        i = self.nrows
        self.nrows += 1
        self._rhs[i] = rhs
        self.row_sense.append(sense)
        for j, a in entries:
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

    def solve(self, warm: Optional[Basis] = None) -> LpResult:
        return _Simplex(self, warm).run()


class _Simplex:
    """One solve: a workspace over the model's columns.

    Phase 1 relaxes the bounds of some basic logicals in the workspace's
    own copies of ``lb`` and ``ub``; ``relaxed`` maps each such column to
    the bound it lay beyond, and empties as they leave the basis.

    A model with at least STRUCTURED_ROWS rows takes the structured
    kernel: ``Binv`` is column-major, and A's nonzeros by column are
    held in ``nz_row``, ``nz_val`` and ``nz_col``, column j's at
    ``nz_start[j]:nz_start[j + 1]``; ``row_of`` maps each logical to
    its row and every other column to -1.
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
        self.basic: list[int] = []
        self.Binv: Optional[np.ndarray] = None  # set with the basis
        self.structured = self.m >= STRUCTURED_ROWS
        if self.structured:
            self.nz_col, self.nz_row = np.nonzero(self.A.T)
            self.nz_val = self.A[self.nz_row, self.nz_col]
            self.nz_start = np.searchsorted(self.nz_col, np.arange(self.n + 1))
            self.row_of = np.full(self.n, -1, dtype=np.intp)
            self.row_of[lp.logical] = np.arange(self.m)
        self.x = np.zeros(self.n)
        self.xb = np.zeros(self.m)
        self.iters = 0
        self.pivots_since_refactor = 0
        self.zero_pivots = 0  # sub-tolerance pivot elements in a row
        self.warm = warm

    # -- basis setup ---------------------------------------------------------

    def _cold_basis(self):
        self.status[:] = np.where(self.lb > -INF, AT_LB, AT_UB)
        self.basic = list(self.lp.logical)
        self.status[self.basic] = BASIC
        self.Binv = np.eye(self.m, order="F" if self.structured else "C")
        self.pivots_since_refactor = 0

    def _load_warm(self, warm: Basis) -> bool:
        # a row added since the snapshot starts on its own logical
        basic = list(warm.basic) + self.lp.logical[len(warm.basic) :]
        if len(basic) > self.m or len(set(basic)) < len(basic):
            return False
        if any(not 0 <= j < self.n for j in basic):
            return False
        # a column starts at its finite bound, except that one recorded at
        # a finite upper bound stays there
        self.status[:] = np.where(self.lb > -INF, AT_LB, AT_UB)
        up = np.flatnonzero(np.array(warm.status[: self.n]) == AT_UB)
        self.status[up] = np.where(self.ub[up] < INF, AT_UB, AT_LB)
        self.status[basic] = BASIC
        self.basic = basic
        factor, self.lp._factor = self.lp._factor, None
        if factor and factor[0] == tuple(basic):
            _, self.Binv, self.pivots_since_refactor = factor
        else:
            factor = None  # free a stale inverse before inv() allocates its own
            try:
                self.Binv = self._inverse()
            except SingularBasisError:
                return False
        return bool(np.all(np.isfinite(self.Binv)))

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
        return bool(np.all((lo - FEAS_TOL <= self.xb) & (self.xb <= hi + FEAS_TOL)))

    def _refresh(self):
        at_lb, at_ub = self.status == AT_LB, self.status == AT_UB
        np.copyto(self.x, self.lb, where=at_lb)
        np.copyto(self.x, self.ub, where=at_ub)
        self.sign[:] = 0.0
        self.sign[self.free & at_lb] = 1.0
        self.sign[self.free & at_ub] = -1.0
        self.xb = self._basic_values()
        self.x[self.basic] = self.xb

    def _refactor(self):
        self.Binv = None  # free the old inverse before inv() allocates its own
        self.Binv = self._inverse()
        self.pivots_since_refactor = 0
        self._refresh()

    def _inverse(self) -> np.ndarray:
        """B^-1 of ``A[:, basic]``; raises SingularBasisError if B is singular.

        The structured kernel inverts only the bump A[R_S, S] and fills
        in the rest by the closed form in the module docstring.
        """
        try:
            if not self.structured:
                return np.linalg.inv(self.A[:, self.basic])
            logical, covered, struct, bump = self._split()
            Binv = np.zeros((self.m, self.m), order="F")
            Binv[logical, covered] = 1.0
            if struct.size:
                cols = np.asarray(self.basic)[struct]
                Y = np.linalg.inv(self.A[np.ix_(bump, cols)])
                Binv[np.ix_(struct, bump)] = Y
                Binv[np.ix_(logical, bump)] = -(self.A[np.ix_(covered, cols)] @ Y)
            return Binv
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix became singular") from None

    def _split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(basic logicals' positions, their rows, structurals' positions, bump rows)."""
        rows = self.row_of[self.basic]
        logical = np.flatnonzero(rows >= 0)
        covered = rows[logical]
        bump = np.ones(self.m, dtype=bool)
        bump[covered] = False
        return logical, covered, np.flatnonzero(rows < 0), np.flatnonzero(bump)

    def _ftran(self, q: int) -> np.ndarray:
        """B^-1 a_q, over the nonzeros of a_q on the structured kernel."""
        if not self.structured:
            return self.Binv @ self.A[:, q]
        nz = slice(self.nz_start[q], self.nz_start[q + 1])
        return self.Binv[:, self.nz_row[nz]] @ self.nz_val[nz]

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """cb B^-1, over the bump's columns of B^-1 on the structured kernel."""
        if not self.structured:
            return cb @ self.Binv
        logical, covered, _, bump = self._split()
        # the column of B^-1 for a basic logical's row is the unit vector
        # of its position, so y there is that logical's cost
        y = np.zeros(self.m)
        y[covered] = cb[logical]
        y[bump] = cb @ self.Binv[:, bump]
        return y

    def _times_A(self, y: np.ndarray) -> np.ndarray:
        """y A, over the nonzeros of A on the structured kernel."""
        if not self.structured:
            return y @ self.A
        return np.bincount(
            self.nz_col, weights=y[self.nz_row] * self.nz_val, minlength=self.n
        )

    def _relax_logicals(self) -> np.ndarray:
        """Relax each basic logical outside its bounds; returns the phase-1 costs.

        Called on the cold, all-logical basis.  A logical below its lower
        bound gets the bounds (-inf, lower] and cost -1, one above its
        upper bound [upper, inf) and cost +1: phase 1 moves it towards
        the violated bound, and it leaves the basis on reaching it.
        """
        basic = np.asarray(self.basic, dtype=np.intp)
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
        if not self.n:
            return OPTIMAL
        while True:
            if self.iters >= ITER_LIMIT:
                return ITERATION_LIMIT
            d = costs - self._times_A(self._btran(cb))
            sd = self.sign * d
            enter = int(sd.argmin())
            if not sd[enter] < -RC_TOL:
                return OPTIMAL
            if bland:
                enter = int((sd < -RC_TOL).argmax())
            direction = float(self.sign[enter])
            w = self._ftran(enter)
            dw = direction * w
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
            out = self.basic[leave_pos]
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
        out = self.basic[p]
        self.status[out] = leave_to
        self.x[out] = self.lb[out] if leave_to == AT_LB else self.ub[out]
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
        when the entering column reaches its other bound first.  The result
        is that of a scan in row order over the rows with |dw| > PIVOT_TOL:
        a step more than PIVOT_TOL below the best so far replaces it; a
        step within PIVOT_TOL of it replaces it on the lower variable id in
        Bland mode (the anti-cycling guarantee needs it), otherwise on the
        larger |dw| (the numerically safer pivot).  A row heading for an
        infinite bound gets the step inf or nan, which never replaces
        anything.  A smallest step more than PIVOT_TOL below every other
        one decides the scan alone, so the scan runs only on near ties.
        A row with |dw| <= PIVOT_TOL gets the step inf too, so no row is
        gathered before the scan.
        """
        if not dw.size:
            return t_flip, -1, AT_LB
        t = np.full(dw.size, INF)
        np.divide(self.xb - np.where(dw > 0.0, lo, hi), dw, out=t, where=np.abs(dw) > PIVOT_TOL)
        np.copyto(t, 0.0, where=t < 0.0)  # max(t, 0.0): keeps -0.0 and nan
        i = int(t.argmin())  # the first nan, if there is one
        t_min = t[i].item()
        # both tests only get easier as the other step grows, so the
        # smallest other step stands for all of them
        t[i] = INF
        t_2 = t.min().item()
        t[i] = t_min
        if abs(t_2 - t_min) > PIVOT_TOL and t_min < t_2 - PIVOT_TOL:
            if t_min < t_flip - PIVOT_TOL:
                return t_min, i, AT_LB if dw[i] > 0.0 else AT_UB
            return t_flip, -1, AT_LB
        rows = np.flatnonzero(t < INF)  # an inf or nan step replaces nothing
        t_best, leave_pos, best_d = t_flip, -1, 0.0
        for p, tp, dp in zip(rows.tolist(), t[rows].tolist(), dw[rows].tolist()):
            if leave_pos >= 0 and abs(tp - t_best) <= PIVOT_TOL:
                if bland:
                    if not self.basic[p] < self.basic[leave_pos]:
                        continue
                elif not abs(dp) > abs(best_d):
                    continue
            elif not tp < t_best - PIVOT_TOL:
                continue
            t_best, leave_pos, best_d = tp, p, dp
        return t_best, leave_pos, AT_UB if best_d < 0.0 else AT_LB

    def _update_inverse(self, p: int, w: np.ndarray):
        """Rank-one update of B^-1 after the column with B^-1 a = w enters row p.

        The dense kernel updates all of B^-1 in one expression: below
        STRUCTURED_ROWS rows its temporary is at most 520 KB.  The
        structured one updates in place, column by column, only the
        columns where row p is nonzero: the bump's rows and at most one more.
        """
        Binv = self.Binv
        if self.structured:
            cols = np.flatnonzero(Binv[p])
            pivot_row = Binv[p, cols] / w[p]
            for j, v in zip(cols.tolist(), pivot_row.tolist()):
                col = Binv[:, j]
                col -= v * w
            Binv[p, cols] = pivot_row
            return
        pivot_row = Binv[p] / w[p]
        Binv -= np.outer(w, pivot_row)
        Binv[p] = pivot_row

    def _duals(self) -> np.ndarray:
        """Row prices of the phase-2 costs."""
        return self._btran(self.c[self.basic])

    def _reduced_costs(self) -> np.ndarray:
        return self.c - self._times_A(self._duals())

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
            basic = np.asarray(self.basic, dtype=np.intp)
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
            alpha = self._times_A(self.Binv[r])
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
            w = self._ftran(q)
            if self._zero_pivot(w[r]):
                continue
            target = lo[r] if to_lb else hi[r]
            theta = (self.xb[r] - target) / w[r]  # signed move of x_q
            self._pivot(r, q, w, theta, AT_LB if to_lb else AT_UB)

    def _certified(self, y: np.ndarray) -> bool:
        """Whether x and the row prices y are optimal, checked against A."""
        x = self.x
        if np.any(np.abs(self.A @ x - self.b) > FEAS_TOL):
            return False
        if np.any(x < self.lb - FEAS_TOL) or np.any(x > self.ub + FEAS_TOL):
            return False
        d = self.c - self._times_A(y)
        if (self.sign * d < -RC_TOL).any():
            return False
        return bool(np.all(np.abs(d[self.basic]) <= RC_TOL))

    # -- driver -----------------------------------------------------------------

    def run(self) -> LpResult:
        loaded = self.warm is not None and self._load_warm(self.warm)
        if not loaded:
            self._cold_basis()
        self._refresh()
        if loaded and not self._primal_feasible():
            st = self._dual_phase() if self._dual_feasible() else INFEASIBLE
            if st == ITERATION_LIMIT:
                return LpResult(st, iterations=self.iters)
            if st != OPTIMAL:
                # not dual feasible, or infeasible by the dual ratio test:
                # restart cold and let phase 1 decide
                self._cold_basis()
                self._refresh()
                loaded = False
        if not loaded:
            costs = self._relax_logicals()
            if self.relaxed:
                st = self._iterate(costs)
                if st != OPTIMAL:
                    return LpResult(st, iterations=self.iters)
                left = sum(
                    abs(self.xb[p]) for p, j in enumerate(self.basic) if j in self.relaxed
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
            y = self._duals()
            if self._certified(y):
                break
        else:
            return LpResult(UNCERTIFIED, iterations=self.iters)
        obj = float(self.c @ self.x)
        # the next warm solve from this basis takes this inverse as is
        self.lp._factor = (tuple(self.basic), self.Binv, self.pivots_since_refactor)
        snapshot = Basis(list(self.basic), self.status.tolist())
        return LpResult(OPTIMAL, obj, self.x.copy(), y, snapshot, self.iters)

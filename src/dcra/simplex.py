"""Dense linear-program solver for the equality-form problems built here.

Solves max c.x subject to A x = b, x >= 0 with a two-phase revised simplex
on a dense basis inverse.  The programs this package generates are small (a
few thousand variables at the largest supported deadline) but routinely
degenerate, so the implementation favours predictable, reproducible pivoting
over raw speed: Dantzig pricing with a switch to Bland's rule after a fixed
pivot budget, lowest-variable-index ratio tie-breaks, and periodic
refactorisation of the basis inverse to keep roundoff in check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["LpProgram", "LpSolution", "LpStatus", "solve_lp", "write_mps"]

# numerical tolerances: pivots smaller than _PIVOT_TOL are treated as zero,
# reduced costs within _COST_TOL of zero terminate the phase, and a pivot
# below _STABLE_PIVOT is only accepted right after a refactorisation (tiny
# pivots otherwise blow roundoff into the basis inverse)
_PIVOT_TOL = 1e-10
_STABLE_PIVOT = 1e-7
_COST_TOL = 1e-9
_REFACTOR_EVERY = 500


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProgram:
    """Maximisation program: max objective @ x s.t. constraints @ x = rhs, x >= 0."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.ascontiguousarray(self.objective, dtype=float)
        self.constraints = np.ascontiguousarray(self.constraints, dtype=float)
        self.rhs = np.ascontiguousarray(self.rhs, dtype=float)
        if self.constraints.ndim != 2:
            raise ValueError("constraint matrix must be two-dimensional")
        m, n = self.constraints.shape
        if self.objective.shape != (n,):
            raise ValueError(
                f"objective length {self.objective.shape} does not match "
                f"{n} columns"
            )
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs length {self.rhs.shape} does not match {m} rows")
        for name, arr in (
            ("objective", self.objective),
            ("constraints", self.constraints),
            ("rhs", self.rhs),
        ):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def shape(self) -> tuple[int, int]:
        return self.constraints.shape


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int

    def require_optimal(self) -> np.ndarray:
        if self.status is not LpStatus.OPTIMAL:
            raise RuntimeError(f"expected an optimal solution, got {self.status.value}")
        return self.x


class _Simplex:
    """Revised simplex working state: columns, basis, dense basis inverse.

    The artificial columns of phase 1 are kept virtually: column indices
    n..n+m-1 denote the identity columns used to seed the basis, so the
    constraint matrix itself is never widened.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        flip = b < 0.0
        self.A = np.where(flip[:, None], -A, A)
        self.b = np.where(flip, -b, b)
        self.m = m
        self.n = n
        self.basis = np.arange(n, n + m)
        self.binv = np.eye(m)
        self.xb = self.b.copy()
        self.iterations = 0
        self.pivots_since_refactor = 0

    def column(self, j: int) -> np.ndarray:
        if j >= self.n:
            col = np.zeros(self.m)
            col[j - self.n] = 1.0
            return col
        return self.A[:, j]

    def refactor(self) -> None:
        B = np.column_stack([self.column(j) for j in self.basis])
        self.binv = np.linalg.inv(B)
        self.xb = self.binv @ self.b
        self.pivots_since_refactor = 0

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        cb = c[self.basis]
        y = cb @ self.binv
        return c[: self.n] - y @ self.A

    def pivot(self, entering: int, row: int, d: np.ndarray | None = None) -> None:
        if d is None:
            d = self.binv @ self.column(entering)
        piv = d[row]
        self.binv[row] /= piv
        others = np.arange(self.m) != row
        self.binv[others] -= np.outer(d[others], self.binv[row])
        self.basis[row] = entering
        self.xb = self.binv @ self.b
        # degenerate pivots can leave -0.0 or tiny negatives behind
        np.clip(self.xb, 0.0, None, out=self.xb)
        self.iterations += 1
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self.refactor()

    def run_phase(self, c: np.ndarray, bland_after: int, max_iter: int) -> LpStatus:
        """Iterate to optimality for the cost vector c (length n + m)."""
        start = self.iterations
        while True:
            if self.iterations - start > max_iter:
                raise RuntimeError(
                    f"simplex exceeded {max_iter} pivots; the program is "
                    "likely ill-conditioned"
                )
            r = self.reduced_costs(c)
            candidates = np.flatnonzero(r > _COST_TOL)
            # a basic column can only price positive through roundoff
            candidates = candidates[~np.isin(candidates, self.basis)]
            if candidates.size == 0:
                return LpStatus.OPTIMAL
            bland = self.iterations - start >= bland_after
            if bland:
                entering = int(candidates[0])
            else:
                entering = int(candidates[np.argmax(r[candidates])])
            d = self.binv @ self.column(entering)
            positive = d > _PIVOT_TOL
            if not positive.any():
                if self.pivots_since_refactor:
                    # could be roundoff in a stale inverse; check again fresh
                    self.refactor()
                    continue
                return LpStatus.UNBOUNDED
            ratios = np.full(self.m, np.inf)
            ratios[positive] = self.xb[positive] / d[positive]
            best = ratios.min()
            tied = np.flatnonzero(ratios <= best + _PIVOT_TOL * (1.0 + best))
            if bland:
                # lowest leaving variable index: with lowest-index entering
                # this is the textbook anti-cycling pair
                row = int(tied[np.argmin(self.basis[tied])])
            else:
                # stability first: the largest pivot among tied rows
                row = int(tied[np.argmax(d[tied])])
            if d[row] < _STABLE_PIVOT and self.pivots_since_refactor:
                # a pivot this small divides roundoff into the inverse;
                # refactorise and re-price before trusting it
                self.refactor()
                continue
            self.pivot(entering, row, d)


def _evict_artificials(state: _Simplex) -> None:
    """Drive zero-level artificials out of the basis, dropping redundant rows.

    After a feasible phase 1 any artificial still basic sits at level zero.
    If its row prices out a real column we pivot it out; otherwise the row is
    a linear combination of the others and is deleted together with the
    artificial.
    """
    while True:
        rows = np.flatnonzero(state.basis >= state.n)
        if rows.size == 0:
            return
        row = int(rows[0])
        tableau_row = state.binv[row] @ state.A
        nonbasic = np.setdiff1d(
            np.flatnonzero(np.abs(tableau_row) > 1e-8), state.basis
        )
        if nonbasic.size:
            state.pivot(int(nonbasic[0]), row)
            continue
        keep = np.arange(state.m) != row
        state.A = state.A[keep]
        state.b = state.b[keep]
        state.basis = np.delete(state.basis, row)
        # artificial indices reference rows of the original system; renumber
        # those beyond the dropped row so column() keeps addressing e_i
        state.basis = np.where(
            state.basis >= state.n + row + 1, state.basis - 1, state.basis
        )
        state.m -= 1
        state.refactor()


def solve_lp(program: LpProgram) -> LpSolution:
    """Two-phase revised simplex for max c.x, A x = b, x >= 0."""
    A, b, c = program.constraints, program.rhs, program.objective
    m, n = A.shape
    state = _Simplex(A, b)
    bland_after = 10 * m + 1000
    max_iter = max(200 * (m + n), 20000)

    phase1_cost = np.concatenate([np.zeros(n), -np.ones(m)])
    status = state.run_phase(phase1_cost, bland_after, max_iter)
    if status is LpStatus.UNBOUNDED:
        raise RuntimeError("phase 1 cannot be unbounded; solver invariant broken")
    infeasibility = -(phase1_cost[state.basis] @ state.xb)
    if infeasibility > 1e-7 * (1.0 + abs(b).max(initial=0.0)):
        return LpSolution(LpStatus.INFEASIBLE, None, None, state.iterations)
    _evict_artificials(state)

    phase2_cost = np.concatenate([c, np.zeros(state.m)])
    status = state.run_phase(phase2_cost, bland_after, max_iter)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, None, None, state.iterations)

    # final cleanup: re-solve the basis system directly for a crisp residual
    B = np.column_stack([state.column(j) for j in state.basis])
    xb = np.linalg.solve(B, state.b)
    x = np.zeros(n)
    real = state.basis < n
    x[state.basis[real]] = xb[real]
    np.clip(x, 0.0, None, out=x)
    residual = np.abs(program.constraints @ x - program.rhs).max(initial=0.0)
    tol = 1e-9 * (1.0 + np.abs(program.rhs).max(initial=0.0))
    if residual > tol:
        raise RuntimeError(
            f"simplex finished with residual {residual:.3e} above {tol:.3e}"
        )
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x), state.iterations)


def write_mps(program: LpProgram, path: str, name: str = "DCRALP") -> None:
    """Export the program in fixed-field MPS.

    MPS readers minimise by default, so the objective row carries the negated
    coefficients; a comment line records the convention.  An OSError
    surfaces as RuntimeError("cannot write <path>: ..."), as in write_csv.
    """
    A, b, c = program.constraints, program.rhs, program.objective
    m, n = A.shape
    lines = [
        "* Maximisation program exported in minimise convention:",
        "* objective coefficients are negated.",
        f"NAME          {name}",
        "ROWS",
        " N  COST",
    ]
    rownames = [f"R{i + 1:07d}" for i in range(m)]
    colnames = [f"X{j + 1:07d}" for j in range(n)]
    for rn in rownames:
        lines.append(f" E  {rn}")
    lines.append("COLUMNS")
    for j, cn in enumerate(colnames):
        if c[j] != 0.0:
            lines.append(f"    {cn:<8}  {'COST':<8}  {-c[j]:.12E}")
        for i in np.flatnonzero(A[:, j]):
            lines.append(f"    {cn:<8}  {rownames[i]:<8}  {A[i, j]:.12E}")
    lines.append("RHS")
    for i in np.flatnonzero(b):
        lines.append(f"    {'RHS':<8}  {rownames[i]:<8}  {b[i]:.12E}")
    lines.append("ENDATA")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc

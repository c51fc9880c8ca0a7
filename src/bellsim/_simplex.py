"""Dense phase-1 simplex for tiny exact feasibility problems.

Solves  min sum(artificials)  s.t.  A x + artificials = b,  x >= 0  for dense
A with a handful of rows.  The system Ax = b, x >= 0 is feasible iff the
optimum is ~0.  Bland's rule (lowest eligible index for both entering and
leaving variables) prevents cycling, and the problem sizes here (at most a
few dozen rows/columns) make the dense tableau the simplest correct choice.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

__all__ = ["phase1_solve"]

# Passes of the pivot loop (each pivot, and the last pass that finds no entering
# column) before the solver gives up with a NumericError.
MAX_ITER = 20000


def phase1_solve(a_eq: np.ndarray, b_eq: np.ndarray, *, tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Return (infeasibility mass, x) for the phase-1 LP of Ax = b, x >= 0.

    The first element is the minimized total artificial mass: ~0 means x is a
    feasible point of the original system, a positive value measures how far
    the system is from feasible (in total L1 constraint violation).
    """
    a = np.array(a_eq, dtype=np.float64, copy=True)
    b = np.array(b_eq, dtype=np.float64, copy=True).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise NumericError(f"inconsistent LP shapes: A {a.shape}, b {b.shape}")
    m, n = a.shape
    negative = b < 0.0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Tableau columns: n structural variables, m artificials, rhs.
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = list(range(n, n + m))
    # Phase-1 reduced costs with the all-artificial basis: r_j = c_j - sum_i T[i, j].
    reduced = np.zeros(n + m)
    reduced[n:] = 1.0
    reduced -= tableau[:, :-1].sum(axis=0)

    for _ in range(MAX_ITER):
        entering_candidates = np.nonzero(reduced < -tol)[0]
        if entering_candidates.size == 0:
            break
        j = int(entering_candidates[0])  # Bland: smallest eligible index
        column = tableau[:, j].copy()
        rows = np.nonzero(column > tol)[0]
        if rows.size == 0:
            raise NumericError("phase-1 LP claims unboundedness; numerical breakdown")
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        i = int(min(ties, key=lambda k: basis[k]))  # Bland: smallest leaving variable
        pivot_row = tableau[i] / tableau[i, j]
        tableau -= np.outer(column, pivot_row)
        tableau[i] = pivot_row
        reduced -= reduced[j] * pivot_row[:-1]
        basis[i] = j
    else:
        raise NumericError(f"phase-1 simplex exceeded {MAX_ITER} iterations")

    x = np.zeros(n + m)
    for row, variable in enumerate(basis):
        x[variable] = tableau[row, -1]
    return float(x[n:].sum()), x[:n]

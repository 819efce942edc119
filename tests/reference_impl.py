"""Reference code that only the tests read: a scalar 4x4 Gaussian
elimination (the implicit stage solve the closed-form maps are checked
against) and the truncated power series of exp(A(w) tau / 2) (a cross-check
of the closed-form constant-rate transition)."""
import numpy as np

from quatkin.diagnostics import frobenius_norm
from quatkin.errors import SingularMatrixError
from quatkin.model import I4, coefficient_matrix

# Pivot magnitudes below this floor are treated as singular.
PIVOT_FLOOR = 1e-14


def _pivot_row(rows: list, col: int) -> int:
    """Index of the largest-magnitude entry of column `col` at or below the
    diagonal (first one on ties); raises SingularMatrixError below the floor."""
    p, best = col, abs(rows[col][col])
    for r in range(col + 1, 4):
        v = abs(rows[r][col])
        if v > best:
            p, best = r, v
    if best < PIVOT_FLOOR:
        raise SingularMatrixError(
            f"pivot magnitude {best:.3e} in column {col} is below "
            f"the singularity floor {PIVOT_FLOOR:.0e}"
        )
    return p


def solve_linear_4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a 4x4 linear system by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    PIVOT_FLOOR.  The elimination runs on Python floats in fresh augmented
    rows, so the inputs are never modified, and the back substitution is
    written out; a per-element numpy version costs several times more per
    call at this size.
    """
    m = np.asarray(a, dtype=float)
    x = np.asarray(b, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if x.shape != (4,):
        raise ValueError(f"expected a length-4 right-hand side, got shape {x.shape}")

    rows = [r + [v] for r, v in zip(m.tolist(), x.tolist())]
    for col in range(3):
        p = _pivot_row(rows, col)
        rows[col], rows[p] = rows[p], rows[col]
        pivot_row = rows[col]
        pivot = pivot_row[col]
        for i in range(col + 1, 4):
            f = rows[i][col] / pivot
            if f != 0.0:
                rows[i] = [u - f * v for u, v in zip(rows[i], pivot_row)]
    _pivot_row(rows, 3)

    # Upper triangle with the right-hand side in column 4; each row's
    # products are summed before the subtraction, as a row-times-solution
    # dot product would.
    r0, r1, r2, r3 = rows
    x3 = r3[4] / r3[3]
    x2 = (r2[4] - r2[3] * x3) / r2[2]
    x1 = (r1[4] - (r1[2] * x2 + r1[3] * x3)) / r1[1]
    x0 = (r0[4] - (r0[1] * x1 + r0[2] * x2 + r0[3] * x3)) / r0[0]
    return np.array([x0, x1, x2, x3])


def constant_transition_series(omega, tau, tol: float = 1e-18) -> np.ndarray:
    """Truncated power series of exp(A(w) tau / 2); independent cross-check
    oracle for quatkin.model.analytic_constant_transition.

    Terms are accumulated until the next term's Frobenius norm drops below
    tol.
    """
    m = 0.5 * tau * coefficient_matrix(omega)
    out = I4.copy()
    term = I4.copy()
    for k in range(1, 300):
        term = term @ m / k
        out += term
        if frobenius_norm(term) < tol:
            return out
    raise ArithmeticError("matrix exponential series failed to converge")

"""Dense fixed-size linear algebra (2x2 and 4x4) backing the transition maps.

Vectors and matrices are plain float64 numpy arrays; everything here is a
pure function over immutable values.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "I4",
    "J2",
    "SYMPLECTIC_J4",
    "LEFT_I",
    "LEFT_J",
    "LEFT_K",
    "PIVOT_FLOOR",
    "frobenius_norm",
    "solve_linear_4",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


I4 = _frozen(np.eye(4))

# 2x2 rotation generator: J2 @ J2 = -I2, J2.T = -J2
J2 = _frozen(np.array([[0.0, 1.0], [-1.0, 0.0]]))

# Block structure matrix [[0, I2], [-I2, 0]], pairing (e0, e2) with (e1, e3).
# As a quaternion map it is the right multiplication q -> q (x) (-j), so it
# does not commute with the rate matrix A(w) (itself the right
# multiplication q -> q (x) (0, w)) unless w is parallel to e2: the exact
# flow exp(tau A/2) does not preserve it.  It is kept because the
# time-varying map's correction term beta_k J is built on it.
SYMPLECTIC_J4 = _frozen(
    np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
)

# Left multiplications q -> i (x) q, j (x) q, k (x) q.  They are skew, square
# to -I and commute with every right multiplication, hence with every A(w)
# and every step map built from it: these are the structure matrices the
# quaternion flow preserves.  -LEFT_I = diag(J2, J2) is the canonical
# structure matrix of the pairs (e0, e1) and (e2, e3).
LEFT_I = _frozen(
    np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
)
LEFT_J = _frozen(
    np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
)
LEFT_K = _frozen(
    np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
)

# Pivot magnitudes below this floor are treated as singular.
PIVOT_FLOOR = 1e-14


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


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

"""Dense fixed-size linear algebra (2x2 and 4x4) backing the transition maps.

Vectors and matrices are plain float64 numpy arrays; everything here is a
pure function over immutable values.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "I2",
    "I4",
    "J2",
    "SYMPLECTIC_J4",
    "PIVOT_FLOOR",
    "mat_mul",
    "frobenius_norm",
    "solve_linear_4",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


I2 = _frozen(np.eye(2))
I4 = _frozen(np.eye(4))

# 2x2 rotation generator: J2 @ J2 = -I2, J2.T = -J2
J2 = _frozen(np.array([[0.0, 1.0], [-1.0, 0.0]]))

# Standard 4x4 symplectic structure matrix: +I2 upper-right, -I2 lower-left.
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

# Pivot magnitudes below this floor are treated as singular.
PIVOT_FLOOR = 1e-14


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 4x4 (or conformable) matrices."""
    return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def solve_linear_4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a 4x4 linear system by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    PIVOT_FLOOR.  Always works on copies of the inputs.
    """
    m = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if x.shape != (4,):
        raise ValueError(f"expected a length-4 right-hand side, got shape {x.shape}")

    for col in range(4):
        p = col + int(np.argmax(np.abs(m[col:, col])))
        pivot = m[p, col]
        if abs(pivot) < PIVOT_FLOOR:
            raise SingularMatrixError(
                f"pivot magnitude {abs(pivot):.3e} in column {col} is below "
                f"the singularity floor {PIVOT_FLOOR:.0e}"
            )
        if p != col:
            m[[col, p]] = m[[p, col]]
            x[[col, p]] = x[[p, col]]
        for row in range(col + 1, 4):
            f = m[row, col] / m[col, col]
            if f != 0.0:
                m[row, col:] -= f * m[col, col:]
                x[row] -= f * x[col]

    for col in range(3, -1, -1):
        x[col] = (x[col] - m[col, col + 1 :] @ x[col + 1 :]) / m[col, col]
    return x

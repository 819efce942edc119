"""The 4x4 structure matrices and the Frobenius norm behind the transition maps.

Vectors and matrices are plain float64 numpy arrays; everything here is a
pure function over immutable values.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "I4",
    "SYMPLECTIC_J4",
    "LEFT_I",
    "LEFT_J",
    "LEFT_K",
    "frobenius_norm",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


I4 = _frozen(np.eye(4))

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
# quaternion flow preserves.  -LEFT_I = diag(J2, J2), J2 = [[0, 1], [-1, 0]],
# is the canonical structure matrix of the pairs (e0, e1) and (e2, e3).
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


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))

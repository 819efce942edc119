"""Reference code that only the tests read: a scalar 4x4 Gaussian
elimination (the implicit stage solve the closed-form maps are checked
against), the truncated power series of exp(A(w) tau / 2) (a cross-check
of the closed-form constant-rate transition) and the batched RK4 and GL2
step builders as first written, with a stage matrix per stage and
np.block (the arithmetic quatkin.baselines must reproduce bitwise), and
the registry's formula profiles as first written, np.stack of their three
components (which quatkin.scenario's must reproduce bitwise), and a run's
whole fixed-step schedule written out step by step (what
quatkin.trajectory.integrate hands its builders, one block at a time), and
the Hamilton product written out component by component (what
quatkin.model's sign tables must give)."""
import math

import numpy as np

from quatkin.baselines import GL2_MATRIX, GL2_NODES, GL2_WEIGHTS
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


def hamilton_product(p, q):
    """p (x) q written out component by component; broadcasts over leading axes."""
    (p0, p1, p2, p3), (q0, q1, q2, q3) = np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def schedule(t0, tf, tau):
    """The whole schedule of a run over [t0, tf] with step tau: the sample
    times (K + 1,), the step sizes (K,) and the step ends (K,).

    K = ceil((tf - t0)/tau), less a 1e-9 slack so float noise in the
    division adds no zero-length step; a final step whose start already
    rounds to tf is dropped.  Sample k is t0 + k tau, and the last is tf.
    Every step is tau but the last, which is shortened to end on tf unless
    the span is within 1e-9 tau of K whole steps.  A step ends at its start
    plus its size, capped at tf (the sum can round one ulp past it)."""
    t0, tf, tau = float(t0), float(tf), float(tau)
    span = tf - t0
    k = max(1, math.ceil(span / tau - 1e-9))
    if k > 1 and t0 + (k - 1) * tau >= tf:
        k -= 1
    times = np.array([t0 + i * tau for i in range(k)] + [tf])
    sizes = [tau] * k
    if abs(span - k * tau) > 1e-9 * tau:
        sizes[-1] = span - (k - 1) * tau
    ends = [min(t + h, tf) for t, h in zip(times[:-1].tolist(), sizes)]
    return times, np.array(sizes), np.array(ends)


def rk4_steps(profile, t, tau):
    """Step quaternions (..., 4) of RK4 over [t, t + tau], each stage matrix
    0.5 * coefficient_matrix(w) of its own."""
    t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    h = tau[..., None]
    l1 = 0.5 * coefficient_matrix(profile.omega_at(t))
    l2 = 0.5 * coefficient_matrix(profile.omega_at(t + tau / 2.0))
    l3 = 0.5 * coefficient_matrix(profile.omega_at(t + tau))
    k1 = l1[..., 0]
    k2 = np.einsum("...ij,...j->...i", l2, I4[0] + (h / 2.0) * k1)
    k3 = np.einsum("...ij,...j->...i", l2, I4[0] + (h / 2.0) * k2)
    k4 = np.einsum("...ij,...j->...i", l3, I4[0] + h * k3)
    return I4[0] + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def gl2_steps(profile, t, tau):
    """Step quaternions (..., 4) of 2-stage Gauss-Legendre over [t, t + tau],
    the 8x8 stage matrix built as np.eye(8) - np.block(...)."""
    t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    h = tau[..., None]
    hl1 = h[..., None] * (0.5 * coefficient_matrix(profile.omega_at(t + GL2_NODES[0] * tau)))
    hl2 = h[..., None] * (0.5 * coefficient_matrix(profile.omega_at(t + GL2_NODES[1] * tau)))
    (a11, a12), (a21, a22) = GL2_MATRIX
    m = np.eye(8) - np.block([[a11 * hl1, a12 * hl1], [a21 * hl2, a22 * hl2]])
    rhs = np.concatenate([hl1[..., :1], hl2[..., :1]], axis=-2)
    stages = np.linalg.solve(m, rhs)[..., 0]
    return I4[0] + GL2_WEIGHTS[0] * stages[..., :4] + GL2_WEIGHTS[1] * stages[..., 4:]


FORMULA_PROFILES_STACKED = {
    "fig1b": lambda t: np.stack(
        [2.0 * (1.0 + np.sin(t) * np.exp(-t / 4.0)), np.zeros_like(t), np.zeros_like(t)],
        axis=-1,
    ),
    "fig1c": lambda t: np.stack(
        [
            2.0 * (1.0 + np.sin(t) * np.exp(-t / 4.0)),
            (-3.0 + t * t) * np.exp(-t / 3.0),
            (1.0 + t) * np.exp(-t),
        ],
        axis=-1,
    ),
    "fig1d": lambda t: np.stack(
        [np.sin(10.0 * t) - 2.0, 2.0 * t + 1.4, 4.0 - 0.2 * np.cos(3.0 * t)],
        axis=-1,
    ),
    "fig2": lambda t: np.stack(
        [np.sin(10.0 * t) - 2.0, 2.0 * np.sin(t) + 1.4, 4.0 - 0.2 * np.cos(3.0 * t)],
        axis=-1,
    ),
}

"""Comparison integrators: classical RK4, backward Euler, and 2-stage
Gauss-Legendre, all applied to dq/dt = (1/2) A(w(t)) q.

None of these preserve the quaternion norm exactly (backward Euler damps it
strictly), which is what the structure-preserving maps are measured
against.  All loops share the horizon convention of
:func:`quatkin.trajectory.step_schedule`.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import SingularMatrixError
from .linalg import I4, solve_linear_4
from .model import AngularVelocityProfile, coefficient_matrix
from .trajectory import Trajectory, check_unit_quaternion, step_schedule

__all__ = [
    "BaselineMethod",
    "rk4_step",
    "euler_backward_step",
    "gauss_legendre_step",
    "integrate_baseline",
]


class BaselineMethod(enum.Enum):
    RK4 = "RK4"
    EULER_BACKWARD = "EUB"
    GAUSS_LEGENDRE2 = "GL2"


# 2-stage Gauss-Legendre tableau (order 4): nodes 1/2 -+ sqrt(3)/6.
_GL_SQRT3_6 = math.sqrt(3.0) / 6.0
GL2_NODES = (0.5 - _GL_SQRT3_6, 0.5 + _GL_SQRT3_6)
GL2_MATRIX = ((0.25, 0.25 - _GL_SQRT3_6), (0.25 + _GL_SQRT3_6, 0.25))
GL2_WEIGHTS = (0.5, 0.5)


def _rate_matrix(profile: AngularVelocityProfile, t: float) -> np.ndarray:
    return 0.5 * coefficient_matrix(profile.omega_at(t))


def rk4_step(profile, q, t: float, tau: float):
    """Classical four-stage Runge-Kutta step with stage times
    t, t + tau/2, t + tau/2, t + tau."""
    q = np.asarray(q, dtype=float)
    k1 = _rate_matrix(profile, t) @ q
    l_mid = _rate_matrix(profile, t + tau / 2.0)
    k2 = l_mid @ (q + (tau / 2.0) * k1)
    k3 = l_mid @ (q + (tau / 2.0) * k2)
    k4 = _rate_matrix(profile, t + tau) @ (q + tau * k3)
    return q + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def euler_backward_step(profile, q, t: float, tau: float):
    """Fully implicit Euler step: solve (I - (tau/2) A(w(t + tau))) q+ = q.

    For skew A the system matrix is always nonsingular; the singular-matrix
    error from the solver is surfaced defensively.  The solve contracts the
    norm strictly whenever w != 0.
    """
    q = np.asarray(q, dtype=float)
    m = I4 - (tau / 2.0) * coefficient_matrix(profile.omega_at(t + tau))
    return solve_linear_4(m, q)


def gauss_legendre_step(profile, q, t: float, tau: float):
    """2-stage Gauss-Legendre implicit Runge-Kutta step (order 4).

    The field is linear in q, so the two stage equations

        k_i = L_i (q + tau sum_j a_ij k_j),   L_i = (1/2) A(w(t + c_i tau))

    are assembled into one 8x8 linear system and solved directly; no
    fixed-point iteration is involved.
    """
    q = np.asarray(q, dtype=float)
    l1 = _rate_matrix(profile, t + GL2_NODES[0] * tau)
    l2 = _rate_matrix(profile, t + GL2_NODES[1] * tau)
    m = np.eye(8)
    m[0:4, 0:4] -= tau * GL2_MATRIX[0][0] * l1
    m[0:4, 4:8] -= tau * GL2_MATRIX[0][1] * l1
    m[4:8, 0:4] -= tau * GL2_MATRIX[1][0] * l2
    m[4:8, 4:8] -= tau * GL2_MATRIX[1][1] * l2
    rhs = np.concatenate([l1 @ q, l2 @ q])
    try:
        stages = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"stage system is singular: {exc}") from exc
    return q + tau * (GL2_WEIGHTS[0] * stages[0:4] + GL2_WEIGHTS[1] * stages[4:8])


_STEP_FUNCTIONS = {
    BaselineMethod.RK4: rk4_step,
    BaselineMethod.EULER_BACKWARD: euler_backward_step,
    BaselineMethod.GAUSS_LEGENDRE2: gauss_legendre_step,
}


def integrate_baseline(
    method: BaselineMethod,
    profile: AngularVelocityProfile,
    q0,
    t0: float,
    tf: float,
    tau: float,
) -> Trajectory:
    """Repeatedly apply the chosen step over the shared horizon convention."""
    q = check_unit_quaternion(q0)
    step = _STEP_FUNCTIONS[method]
    times, tau_k = step_schedule(t0, tf, tau)
    k = len(tau_k)
    states = np.empty((k + 1, 4))
    states[0] = q
    for i in range(k):
        q = step(profile, q, float(times[i]), float(tau_k[i]))
        states[i + 1] = q
    return Trajectory(t0=t0, tau=tau, times=times, states=states)

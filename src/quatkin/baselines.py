"""Comparison integrators: classical RK4, backward Euler, and 2-stage
Gauss-Legendre, all applied to dq/dt = (1/2) A(w(t)) q.

The field is linear in q, so every step of every method is a 4x4 matrix
G_k.  :func:`baseline_step_matrices` builds a whole run's G_k at once,
sampling the profile with one omega_at call per stage on the array of stage
times, and :func:`quatkin.trajectory.propagate` applies them.  None of
these preserve the quaternion norm exactly (backward Euler damps it
strictly), which is what the structure-preserving maps are measured
against.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import SingularMatrixError
from .linalg import I4
from .model import AngularVelocityProfile, coefficient_matrix
from .trajectory import (
    Trajectory,
    check_unit_quaternion,
    propagate,
    step_end_times,
    step_schedule,
)

__all__ = [
    "BaselineMethod",
    "baseline_step_matrices",
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


def baseline_step_matrices(
    method: BaselineMethod, profile: AngularVelocityProfile, t, tau, t_end=None
):
    """Step matrices G_k (..., 4, 4) of `method` taking the state from t_k to
    t_k + tau_k, for broadcasting t and tau; L = A(w)/2 is the rate matrix.
    t_end is where the step-end rate is sampled (default t + tau).
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    t_end = t + tau if t_end is None else t_end
    h = tau[..., None, None]
    if method is BaselineMethod.RK4:
        # Stage times t, t + tau/2, t + tau/2, t + tau: K1 = L1,
        # K2 = L2 (I + (tau/2) K1), K3 = L2 (I + (tau/2) K2), K4 = L3 (I + tau K3).
        l1 = 0.5 * coefficient_matrix(profile.omega_at(t))
        l2 = 0.5 * coefficient_matrix(profile.omega_at(t + tau / 2.0))
        l3 = 0.5 * coefficient_matrix(profile.omega_at(t_end))
        k2 = l2 + (h / 2.0) * (l2 @ l1)
        k3 = l2 + (h / 2.0) * (l2 @ k2)
        k4 = l3 + h * (l3 @ k3)
        return I4 + (h / 6.0) * (l1 + 2.0 * (k2 + k3) + k4)
    if method is BaselineMethod.EULER_BACKWARD:
        # (I - x A)^-1 with x = tau/2 and A = A(w(t + tau)).  A^2 = -|w|^2 I
        # gives it in closed form, (I + x A) / (1 + x^2 |w|^2): no solve.
        w = profile.omega_at(t_end)
        x = h / 2.0
        n2 = np.sum(w * w, axis=-1)[..., None, None]
        return (I4 + x * coefficient_matrix(w)) / (1.0 + x * x * n2)
    # Gauss-Legendre: k_i = L_i (q + tau sum_j a_ij k_j) with L_i at t + c_i tau
    # is one 8x8 system per step, solved for all four columns of q at once.
    hl1 = h * (0.5 * coefficient_matrix(profile.omega_at(t + GL2_NODES[0] * tau)))
    hl2 = h * (0.5 * coefficient_matrix(profile.omega_at(t + GL2_NODES[1] * tau)))
    (a11, a12), (a21, a22) = GL2_MATRIX
    m = np.eye(8) - np.block([[a11 * hl1, a12 * hl1], [a21 * hl2, a22 * hl2]])
    try:
        stages = np.linalg.solve(m, np.concatenate([hl1, hl2], axis=-2))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"stage system is singular: {exc}") from exc
    return I4 + GL2_WEIGHTS[0] * stages[..., :4, :] + GL2_WEIGHTS[1] * stages[..., 4:, :]


def integrate_baseline(
    method: BaselineMethod,
    profile: AngularVelocityProfile,
    q0,
    t0: float,
    tf: float,
    tau: float,
) -> Trajectory:
    """Build the chosen method's step matrices over the shared horizon
    convention and propagate them."""
    q = check_unit_quaternion(q0)
    times, tau_k = step_schedule(t0, tf, tau)
    g = baseline_step_matrices(method, profile, times[:-1], tau_k, step_end_times(times, tau_k))
    return Trajectory(t0=t0, tau=tau, times=times, states=propagate(g, q))

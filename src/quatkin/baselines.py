"""Comparison integrators: classical RK4, backward Euler, and 2-stage
Gauss-Legendre, all applied to dq/dt = (1/2) A(w(t)) q.

The field is linear in q and commutes with left multiplications, so every
step of every method is a right multiplication q -> q (x) p_k by its one
step p_k from e0.  :func:`baseline_steps` builds the p_k of a batch of
steps at once, its stage rates drawn by :func:`quatkin.model.stage_rates`,
the one sampling rule; :func:`quatkin.trajectory.integrate` hands it one
block of a run's steps at a time and applies them.  None of these
keep |p_k| = 1 (backward Euler damps the norm strictly), which is what the
structure-preserving maps are measured against.
"""
from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .errors import SingularMatrixError
from .model import (
    I4, AngularVelocityProfile, MidpointSamplingMode, require_rates, right_matrix, stage_rates
)
from .trajectory import Trajectory, integrate, require_finite

__all__ = [
    "BaselineMethod",
    "baseline_steps",
    "baseline_builder",
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
_EYE8 = np.eye(8)

# Where each method samples the rate, as fractions c of the step: t + c tau.
STAGE_FRACTIONS = {BaselineMethod.RK4: (0.0, 0.5, 1.0), BaselineMethod.EULER_BACKWARD: (1.0,),
                   BaselineMethod.GAUSS_LEGENDRE2: GL2_NODES}


def _stage_matrices(*rates):
    """Rate matrices L_i = A(w_i)/2, stacked (n_stages, ..., 4, 4), one per
    stage rate.  Every L_i is R((0, w_i/2)) from one right_matrix call, equal
    entry for entry (signed zeros included) to 0.5 * coefficient_matrix(w_i).
    The rates are broadcast: a ladder's stages come with unequal shapes."""
    half = np.zeros((len(rates), *np.broadcast(*rates).shape[:-1], 4))
    for i, w in enumerate(rates):
        np.divide(w, 2.0, out=half[i, ..., 1:])
    return right_matrix(half)


def baseline_steps(method: BaselineMethod, profile: AngularVelocityProfile, t, tau, t_end=None,
                   mode=MidpointSamplingMode.EXACT):
    """Step quaternions p_k (..., 4) of `method` taking the state from t_k to
    t_k + tau_k, for broadcasting t and tau: each is the method's one step
    from e0, and the step map is q -> q (x) p_k.  L = A(w)/2 is the rate
    matrix; t_end is where the step ends (default t + tau), and `mode` says
    how the stage rates are drawn (see :func:`quatkin.model.stage_rates`).
    Raises ValueError for a rate sample without three components, and
    ConsistencyError naming the first step whose rate or p_k is not finite.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    h = tau[..., None]
    rates = stage_rates(profile, t, tau, t_end, STAGE_FRACTIONS[method], mode)
    require_rates(*rates)  # names the lowest step with a non-finite rate in any stage
    if method is BaselineMethod.RK4:
        # Stage times t, t + tau/2, t + tau/2, t + tau, applied to e0; einsum's
        # batched matrix-vector product beats matmul's at this size.
        l1, l2, l3 = _stage_matrices(*rates)
        k1 = l1[..., 0]
        k2 = np.einsum("...ij,...j->...i", l2, I4[0] + (h / 2.0) * k1)
        k3 = np.einsum("...ij,...j->...i", l2, I4[0] + (h / 2.0) * k2)
        k4 = np.einsum("...ij,...j->...i", l3, I4[0] + h * k3)
        p = I4[0] + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    elif method is BaselineMethod.EULER_BACKWARD:
        # (I - x A)^-1 e0 with x = tau/2 and A = A(w(t + tau)).  A^2 = -|w|^2 I
        # gives it in closed form, (1, x w) / (1 + x^2 |w|^2): no solve.
        (w,) = rates
        # Past |w| ~ 1e154, |w|^2 overflows to inf and p_k to 0: a finite,
        # fully damped step.
        x = h / 2.0
        p = np.concatenate([np.ones_like(w[..., :1]), x * w], axis=-1)
        p = p / (1.0 + x * x * np.sum(w * w, axis=-1, keepdims=True))
    else:
        # Gauss-Legendre: k_i = L_i (e0 + tau sum_j a_ij k_j) with L_i at
        # t + c_i tau is one 8x8 system per step, whose right-hand side is
        # tau [L1 e0; L2 e0].
        hl1, hl2 = h[..., None] * _stage_matrices(*rates)
        # m = I8 - [[a11 hl1, a12 hl1], [a21 hl2, a22 hl2]], block by block
        # into one buffer, with no np.block.
        m = np.empty((*hl1.shape[:-2], 8, 8))
        for i, hl in enumerate((hl1, hl2)):
            for j, a_ij in enumerate(GL2_MATRIX[i]):
                rows, cols = slice(4 * i, 4 * i + 4), slice(4 * j, 4 * j + 4)
                np.subtract(_EYE8[rows, cols], a_ij * hl, out=m[..., rows, cols])
        rhs = np.concatenate([hl1[..., :1], hl2[..., :1]], axis=-2)
        try:
            stages = np.linalg.solve(m, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"stage system is singular: {exc}") from exc
        p = I4[0] + GL2_WEIGHTS[0] * stages[..., :4] + GL2_WEIGHTS[1] * stages[..., 4:]
    require_finite(p, "step map")
    return p


def baseline_builder(
    method: BaselineMethod, profile: AngularVelocityProfile, mode: MidpointSamplingMode
):
    """The step builder (t, tau_k, t_end) -> p (..., 4) of `method`, for the
    run of :func:`integrate_baseline` and the defect ladder alike:
    :func:`baseline_steps` with its method, profile and sampling mode bound."""
    return functools.partial(baseline_steps, method, profile, mode=mode)


def integrate_baseline(
    method: BaselineMethod,
    profile: AngularVelocityProfile,
    q0,
    t0: float,
    tf: float,
    tau: float,
    mode: MidpointSamplingMode = MidpointSamplingMode.EXACT,
) -> Trajectory:
    """Build the chosen method's step quaternions over the shared horizon
    convention, one block of steps at a time, and propagate them."""
    return integrate(baseline_builder(method, profile, mode), q0, t0, tf, tau)

"""Closed-form Cayley transition maps and their fixed-step integration loops.

Both integrators advance the quaternion with a single orthogonal matrix per
step, so the state norm is preserved to rounding no matter how long the run
is.  The constant-rate map comes from the implicit midpoint discretisation
of dq/dt = (1/2) A(w) q, whose Cayley transform has the closed form

    G = [(1 - a) I + (tau/2) A] / (1 + a),      a = tau^2 |w|^2 / 16,

equal to cos(theta) I + sin(theta) A/|w| with theta = 2 atan(tau |w| / 4).
The time-varying map replaces A/2 by B_k = A(w_k)/2 + beta_k J with a
step-midpoint sample w_k and a small correction on the symplectic structure
matrix J; B_k again satisfies B_k^2 = -gamma_k^2 I, so the same closed form
applies with x = tau/2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .linalg import I2, I4, J2, SYMPLECTIC_J4, frobenius_norm
from .model import (
    AngularVelocityProfile,
    MidpointSamplingMode,
    coefficient_matrix,
    midpoint_omega,
)
from .trajectory import Trajectory, check_unit_quaternion, step_schedule

__all__ = [
    "StepSizeWarning",
    "cayley_closed_form",
    "AutonomousTransition",
    "autonomous_transition",
    "integrate_autonomous",
    "b_matrix",
    "NonAutonomousStepCoefficients",
    "nonautonomous_transition",
    "integrate_nonautonomous",
    "reduced_2x2_transition",
]

# Accuracy guideline: the closed form tracks the exact flow to ~1e-4 per
# step while tau <= 1 / (5 |w|).  Larger steps still produce an orthogonal
# map, so this is a warning rather than an error.
STEP_BOUND_FACTOR = 5.0


class StepSizeWarning(UserWarning):
    """Step size exceeds the accuracy guideline tau <= 1/(5 |omega|)."""


def cayley_closed_form(x: float, m: np.ndarray, gamma: float) -> np.ndarray:
    """Cayley transform (I - x M)^-1 (I + x M) for skew M with M^2 = -gamma^2 I.

    Under those preconditions the transform collapses to

        (1/(1 + a)) [(1 - a) I + 2 x M],    a = x^2 gamma^2,

    which equals cos(theta) I + sin(theta) M/gamma with
    theta = 2 atan(x gamma), an orthogonal matrix.  Raises
    PreconditionError naming the violated hypothesis.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise PreconditionError(f"m must be 4x4, got {m.shape}")
    if not gamma > 0.0:
        raise PreconditionError(f"gamma must be positive, got {gamma}")
    skew_defect = frobenius_norm(m + m.T)
    if skew_defect > 1e-12:
        raise PreconditionError(
            f"m is not skew-symmetric: |m + m.T| = {skew_defect:.3e} > 1e-12"
        )
    g2 = gamma * gamma
    square_defect = frobenius_norm(m @ m + g2 * I4)
    if square_defect > 1e-10 * (1.0 + g2):
        raise PreconditionError(
            f"m^2 != -gamma^2 I: defect {square_defect:.3e} exceeds "
            f"{1e-10 * (1.0 + g2):.3e}"
        )
    a = x * x * g2
    return ((1.0 - a) * I4 + (2.0 * x) * m) / (1.0 + a)


@dataclass(frozen=True)
class AutonomousTransition:
    """One-step propagator for constant angular velocity."""

    G: np.ndarray
    alpha: float
    theta: float
    tau: float
    omega: np.ndarray


def autonomous_transition(omega, tau: float) -> AutonomousTransition:
    """Closed-form constant-rate transition matrix.

    G = [(1 - a) I + (tau/2) A(w)] / (1 + a) with a = tau^2 |w|^2 / 16;
    orthogonal, and G(-tau) = G.T = G^-1.  Emits StepSizeWarning when tau
    exceeds the 1/(5 |w|) accuracy guideline.
    """
    w = np.asarray(omega, dtype=float)
    if not math.isfinite(tau):
        raise ValueError("step size must be finite")
    n2 = float(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    n = math.sqrt(n2)
    if n > 0.0 and abs(tau) > 1.0 / (STEP_BOUND_FACTOR * n):
        warnings.warn(
            f"step {tau:.4g} exceeds the accuracy guideline "
            f"1/(5|omega|) = {1.0 / (STEP_BOUND_FACTOR * n):.4g}",
            StepSizeWarning,
            stacklevel=2,
        )
    alpha = tau * tau * n2 / 16.0
    g = ((1.0 - alpha) * I4 + (tau / 2.0) * coefficient_matrix(w)) / (1.0 + alpha)
    theta = 2.0 * math.atan(tau * n / 4.0)
    return AutonomousTransition(G=g, alpha=alpha, theta=theta, tau=tau, omega=w)


def integrate_autonomous(omega, q0, t0: float, tf: float, tau: float) -> Trajectory:
    """Propagate a constant-rate run with one transition matrix built once.

    The loop takes ceil((tf - t0)/tau) steps; a shortened final step (with a
    freshly built transition) lands exactly on tf.  States are never
    renormalized.
    """
    q = check_unit_quaternion(q0)
    times, tau_k = step_schedule(t0, tf, tau)
    k = len(tau_k)
    tr = autonomous_transition(omega, tau)
    g = tr.G
    alphas = np.full(k, tr.alpha)
    thetas = np.full(k, tr.theta)
    if tau_k[-1] != tau:
        tr_last = autonomous_transition(omega, float(tau_k[-1]))
        alphas[-1] = tr_last.alpha
        thetas[-1] = tr_last.theta
    states = np.empty((k + 1, 4))
    states[0] = q
    for i in range(k - 1):
        q = g @ q
        states[i + 1] = q
    g_last = g if tau_k[-1] == tau else tr_last.G
    states[k] = g_last @ q
    return Trajectory(
        t0=t0, tau=tau, times=times, states=states, step_alpha=alphas, step_theta=thetas
    )


def _na_coefficients(w, tau):
    """Per-step scalars of the time-varying map (broadcasting).

    beta = -(tau^2/96) W |w|^2 with W the second rate component,
    gamma^2 = |w|^2/4 - beta W + beta^2, alpha = (tau^2/4) gamma^2.
    """
    w = np.asarray(w, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if w.shape[-1:] != (3,):
        raise ValueError(f"expected angular velocity with last axis 3, got {w.shape}")
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]
    n2 = w1 * w1 + w2 * w2 + w3 * w3
    big_omega = w2
    beta = -(tau * tau / 96.0) * big_omega * n2
    gamma_sq = n2 / 4.0 - beta * big_omega + beta * beta
    alpha = tau * tau / 4.0 * gamma_sq
    return big_omega, beta, gamma_sq, alpha


def b_matrix(omega_k, tau) -> np.ndarray:
    """Skew generator B_k = A(w_k)/2 + beta_k J of the time-varying map.

    beta_k scales the symplectic structure matrix J and vanishes when the
    second rate component is zero or tau -> 0, reducing B_k to A/2 exactly.
    Broadcasts over leading axes of omega_k / tau.
    """
    w = np.asarray(omega_k, dtype=float)
    _, beta, _, _ = _na_coefficients(w, tau)
    return 0.5 * coefficient_matrix(w) + np.asarray(beta)[..., None, None] * SYMPLECTIC_J4


def _na_transition_matrices(w, tau):
    """Batch-build time-varying transitions; returns (G, alpha, theta, gamma_sq).

    Checks the identity B^2 = -gamma^2 I on every step and raises
    ConsistencyError if it fails, since the closed form is only valid on
    the strength of that identity.
    """
    w = np.asarray(w, dtype=float)
    tau = np.asarray(tau, dtype=float)
    _, beta, gamma_sq, alpha = _na_coefficients(w, tau)
    b = 0.5 * coefficient_matrix(w) + np.asarray(beta)[..., None, None] * SYMPLECTIC_J4
    square_defect = np.sqrt(
        np.sum(np.square(b @ b + np.asarray(gamma_sq)[..., None, None] * I4), axis=(-2, -1))
    )
    # Negated comparison so NaN from overflow also trips the guard.
    ok = square_defect <= 1e-10 * (1.0 + gamma_sq)
    if not np.all(ok):
        worst = float(np.max(square_defect))
        raise ConsistencyError(f"B^2 = -gamma^2 I failed: worst defect {worst:.3e}")
    am = np.asarray(alpha)[..., None, None]
    g = ((1.0 - am) * I4 + np.asarray(tau)[..., None, None] * b) / (1.0 + am)
    theta = 2.0 * np.arctan(tau * np.sqrt(gamma_sq) / 2.0)
    return g, alpha, theta, gamma_sq


@dataclass(frozen=True)
class NonAutonomousStepCoefficients:
    """Everything computed for one step of the time-varying scheme."""

    omega_k: np.ndarray
    Omega_k: float
    beta_k: float
    gamma_k_sq: float
    alpha_k: float
    B_k: np.ndarray
    G_k: np.ndarray


def nonautonomous_transition(omega_k, tau: float) -> NonAutonomousStepCoefficients:
    """One-step transition for a midpoint angular-velocity sample.

    G_k = [(1 - a_k) I + tau B_k] / (1 + a_k) with B_k from
    :func:`b_matrix`; orthogonal, and identical to the constant-rate map
    whenever the second rate component vanishes.
    """
    w = np.asarray(omega_k, dtype=float)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be positive, got {tau}")
    big_omega, beta, gamma_sq, alpha = _na_coefficients(w, tau)
    g, _, _, _ = _na_transition_matrices(w, tau)
    return NonAutonomousStepCoefficients(
        omega_k=w,
        Omega_k=float(big_omega),
        beta_k=float(beta),
        gamma_k_sq=float(gamma_sq),
        alpha_k=float(alpha),
        B_k=b_matrix(w, tau),
        G_k=g,
    )


def integrate_nonautonomous(
    profile: AngularVelocityProfile,
    q0,
    t0: float,
    tf: float,
    tau: float,
    mode: MidpointSamplingMode = MidpointSamplingMode.EXACT,
) -> Trajectory:
    """Propagate a time-varying run, one transition per step.

    Step k samples the profile at the midpoint of [t_k, t_k + tau_k]
    (exactly, or by endpoint averaging per `mode`), builds the transition of
    :func:`nonautonomous_transition` for that sample, and applies it.  All
    transitions are constructed in one vectorized pass; the arithmetic is
    identical to per-step scalar construction.
    """
    q = check_unit_quaternion(q0)
    times, tau_k = step_schedule(t0, tf, tau)
    k = len(tau_k)
    omegas = midpoint_omega(profile, times[:k], tau_k, mode)
    g, alphas, thetas, _ = _na_transition_matrices(omegas, tau_k)
    states = np.empty((k + 1, 4))
    states[0] = q
    for i in range(k):
        q = g[i] @ q
        states[i + 1] = q
    return Trajectory(
        t0=t0, tau=tau, times=times, states=states, step_alpha=alphas, step_theta=thetas
    )


def reduced_2x2_transition(omega1_mid: float, tau: float) -> np.ndarray:
    """Planar transition for the (e0, e1) pair when only the first rate
    component is active.

    Returns cos(theta) I2 - sin(theta) J2 with theta = 2 atan(w1 tau / 4);
    a rotation, hence exactly symplectic with respect to J2.
    """
    theta = 2.0 * math.atan(omega1_mid * tau / 4.0)
    return math.cos(theta) * I2 - math.sin(theta) * J2

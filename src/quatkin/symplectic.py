"""Closed-form Cayley transition maps for constant and time-varying rates.

Both maps are one construction: the Cayley transform of (tau/4) A(w), the
implicit-midpoint step of dq/dt = (1/2) A(w) q, whose closed form is

    G = [(1 - a) I + (tau/2) A(w)] / (1 + a),      a = tau^2 |w|^2 / 16,

equal to cos(theta) I + sin(theta) A/|w| with theta = 2 atan(tau |w| / 4).
G is the right multiplication q -> q (x) p by its first column, the unit
quaternion p = ((1 - a), (tau/2) w) / (1 + a), which :func:`cayley_steps`
builds for a batch of steps.  SGA-A evaluates it at the constant rate.
SGA-NA's generator B_k = A(w_k)/2 + beta_k J, with a step-midpoint sample
w_k and J = SYMPLECTIC_J4 = -A(e2), equals A(w_k')/2 at the rate of
:func:`corrected_rate`, so SGA-NA is SGA-A evaluated at w_k'.
Every step is a right multiplication q -> q (x) p_k, so both maps keep the
norm and the structures LEFT_I, LEFT_J and LEFT_K to rounding.
"""
from __future__ import annotations

import os
import sys
import warnings

import numpy as np

from .model import (
    SYMPLECTIC_J4,
    AngularVelocityProfile,
    MidpointSamplingMode,
    coefficient_matrix,
    midpoint_omega,
    rate_array,
    require_rates,
    right_matrix,
)
from .trajectory import Trajectory, integrate, require_finite

__all__ = [
    "StepSizeWarning",
    "cayley_steps",
    "corrected_rate",
    "autonomous_transition",
    "autonomous_builder",
    "integrate_autonomous",
    "b_matrix",
    "nonautonomous_transition",
    "nonautonomous_builder",
    "integrate_nonautonomous",
]

# Accuracy guideline: the closed form tracks the exact flow to ~1e-4 per
# step while tau <= 1 / (5 |w|).  Larger steps still produce an orthogonal
# map, so this is a warning rather than an error.
STEP_BOUND_FACTOR = 5.0


class StepSizeWarning(UserWarning):
    """Step size exceeds the accuracy guideline tau <= 1/(5 |omega|)."""


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """warnings.warn stacklevel, counted from the function that calls this one,
    of the first frame outside this package: a warning names the caller's
    line whichever public entry reached the step builder.  (warn's
    skip_file_prefixes does this too, but only from Python 3.12 on.)  Where
    that frame is runpy's or has no source file, the outermost package frame
    is named instead."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    if frame.f_code.co_filename.startswith("<") or frame.f_globals.get("__name__") == "runpy":
        # No line of the user's (runpy's under python -m, frozen from Python
        # 3.11 on): the outermost package frame.
        level -= 1
    return level


def _norm_sq(w: np.ndarray) -> np.ndarray:
    """|w|^2 over the last axis, which holds the three rate components."""
    return w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2]


def cayley_steps(omega, tau):
    """Step quaternions p_k (..., 4) of the Cayley maps G_k = R(p_k) for rates
    omega (..., 3) and steps tau (...).

    Broadcasts over the leading axes; a negative step gives the conjugate,
    whose map is G.T.  Raises ConsistencyError naming the first step whose
    rate or map is not finite; emits one StepSizeWarning counting the steps
    beyond the 1/(5 |w|) guideline, attributed to the first caller outside
    the package.
    """
    tally = []
    return _warn_once(tally, _cayley_steps(omega, tau, tally))


def _cayley_steps(omega, tau, tally: list):
    """:func:`cayley_steps` without its warning: appends (steps past the
    guideline, steps, worst tau|w| or 0 when none is past) to tally, so that
    an integrator warns once for all the blocks of its run."""
    w = np.asarray(omega, dtype=float)
    tau = np.asarray(tau, dtype=float)
    require_rates(w)
    n2 = _norm_sq(w)
    batch = np.broadcast(n2, tau).shape  # np.broadcast_shapes runs in Python
    alpha = tau * tau * n2 / 16.0
    p = np.empty(batch + (4,))
    p[..., 0] = 1.0 - alpha
    np.multiply(w, (tau / 2.0)[..., None], out=p[..., 1:])
    p /= (1.0 + alpha)[..., None]
    require_finite(p, "step map")
    step_rate = np.abs(tau * np.sqrt(n2))
    over = np.count_nonzero(step_rate * STEP_BOUND_FACTOR > 1.0)
    tally.append((over, step_rate.size, float(np.max(step_rate)) if over else 0.0))
    return p


def _warn_once(tally, result):
    """result, after one StepSizeWarning for the (past, steps, worst) entries
    of tally when any step is past the guideline."""
    over = sum(entry[0] for entry in tally)
    if over:
        warnings.warn(
            f"{over} of {sum(entry[1] for entry in tally)} steps exceed the accuracy "
            f"guideline tau <= 1/(5|omega|); worst tau|omega| = "
            f"{max(entry[2] for entry in tally):.4g}",
            StepSizeWarning,
            stacklevel=_caller_stacklevel(),
        )
    return result


def autonomous_transition(omega, tau) -> np.ndarray:
    """Closed-form constant-rate transition matrix G (4x4), or (..., 4, 4)
    for a step array tau (...), broadcast like :func:`cayley_steps`.

    G = [(1 - a) I + (tau/2) A(w)] / (1 + a) with a = tau^2 |w|^2 / 16;
    orthogonal, and G(-tau) = G.T = G^-1.  Emits StepSizeWarning when tau
    exceeds the 1/(5 |w|) accuracy guideline.
    """
    if not np.isfinite(tau).all():
        raise ValueError("step size must be finite")
    return right_matrix(cayley_steps(omega, tau))


def autonomous_builder(omega, tally: list):
    """SGA-A's step builder (t, tau_k, t_end) -> p (..., 4): the Cayley steps
    at the constant rate omega, for the run of :func:`integrate_autonomous`
    and the defect ladder alike.  Each call appends its guideline count to
    tally (see :func:`_cayley_steps`) instead of warning."""
    return lambda t, tau_k, t_end: _cayley_steps(omega, tau_k, tally)


def integrate_autonomous(omega, q0, t0: float, tf: float, tau: float) -> Trajectory:
    """Propagate a constant-rate run over the steps of :func:`step_schedule`,
    a shortened final step included; states are never renormalized.  Emits
    one StepSizeWarning for the whole run, like :func:`cayley_steps`."""
    tally = []
    return _warn_once(tally, integrate(autonomous_builder(omega, tally), q0, t0, tf, tau))


def _beta(w: np.ndarray, tau) -> np.ndarray:
    """Coefficient beta = -(tau^2/96) w2 |w|^2 of J in the time-varying generator."""
    tau = np.asarray(tau, dtype=float)
    return -(tau * tau / 96.0) * w[..., 1] * _norm_sq(w)


def corrected_rate(omega_k, tau) -> np.ndarray:
    """Rate w' = w + (tau^2/48) w2 |w|^2 e2 of the time-varying map.

    Since J = -A(e2), B_k = A(w_k)/2 + beta_k J equals A(w_k - 2 beta_k e2)/2,
    so the time-varying step is the constant-rate step at w'.  Broadcasts
    over leading axes of omega_k / tau.  Raises ConsistencyError naming the
    first step whose sample is not finite ("rate"), then the first whose
    finite sample gives a w' that is not ("corrected rate", an overflow).
    """
    w = np.asarray(omega_k, dtype=float)
    require_rates(w)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite names it
        beta = _beta(w, tau)
        out = np.array(np.broadcast_to(w, beta.shape + (3,)))
        out[..., 1] -= 2.0 * beta
    require_finite(out, "corrected rate")
    return out


def b_matrix(omega_k, tau) -> np.ndarray:
    """Skew generator B_k = A(w_k)/2 + beta_k J of the time-varying map.

    beta_k scales the block matrix J = SYMPLECTIC_J4 and vanishes when the
    second rate component is zero or tau -> 0, reducing B_k to A/2 exactly.
    Broadcasts over leading axes of omega_k / tau.
    """
    w = rate_array(omega_k)
    beta = _beta(w, tau)
    return 0.5 * coefficient_matrix(w) + beta[..., None, None] * SYMPLECTIC_J4


def nonautonomous_transition(omega_k, tau) -> np.ndarray:
    """One-step transition matrix G_k (4x4) for a midpoint angular-velocity
    sample, or (..., 4, 4) for rates (..., 3) and steps tau (...).

    G_k = [(1 - a_k) I + tau B_k] / (1 + a_k) with B_k from :func:`b_matrix`
    and a_k = tau^2 |w_k'|^2 / 16, built as the constant-rate map at
    w_k' = :func:`corrected_rate`: orthogonal, and identical to the
    constant-rate map at w_k whenever w2 = 0.
    """
    t = np.asarray(tau, dtype=float)
    if not (np.isfinite(t) & (t > 0.0)).all():
        raise ValueError(f"step size must be positive, got {tau}")
    return right_matrix(cayley_steps(corrected_rate(omega_k, tau), tau))


def nonautonomous_builder(
    profile: AngularVelocityProfile, mode: MidpointSamplingMode, tally: list
):
    """SGA-NA's step builder (t, tau_k, t_end) -> p (..., 4), for the run of
    :func:`integrate_nonautonomous` and the defect ladder alike: the map of
    :func:`nonautonomous_transition` at the rate sampled at the midpoint of
    [t, t_end] per `mode`.  Each call appends its guideline count to tally
    instead of warning.  midpoint_omega is called by its module-global name,
    so that a tracer which rebinds it sees every call."""

    def steps(t, tau_k, t_end):
        w = corrected_rate(midpoint_omega(profile, t, tau_k, mode, t_end), tau_k)
        return _cayley_steps(w, tau_k, tally)

    return steps


def integrate_nonautonomous(
    profile: AngularVelocityProfile,
    q0,
    t0: float,
    tf: float,
    tau: float,
    mode: MidpointSamplingMode = MidpointSamplingMode.EXACT,
) -> Trajectory:
    """Propagate a time-varying run, one transition per step, from the steps
    of :func:`nonautonomous_builder`.  The maps are built a block of steps at
    a time (see :func:`quatkin.trajectory.integrate`); the arithmetic is
    identical to per-step scalar construction.  Emits one StepSizeWarning
    for the whole run."""
    tally = []
    steps = nonautonomous_builder(profile, mode, tally)
    return _warn_once(tally, integrate(steps, q0, t0, tf, tau))

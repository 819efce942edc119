"""Quaternion attitude-rate model.

The state is a unit quaternion q = [e0, e1, e2, e3] evolving under

    dq/dt = (1/2) A(w(t)) q,

where w(t) is the body angular-velocity vector and A is the skew-symmetric
coefficient matrix built by :func:`coefficient_matrix`.  This module holds
that matrix, the catalogue of angular-velocity profiles used by the scenario
runner, midpoint-sampling helpers, and the closed-form reference solutions
used as oracles in tests and error reports.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProfileDomainError
from .linalg import I4, frobenius_norm

__all__ = [
    "right_matrix",
    "coefficient_matrix",
    "AngularVelocityProfile",
    "ConstantProfile",
    "ConingProfile",
    "TabulatedProfile",
    "FormulaProfile",
    "MidpointSamplingMode",
    "midpoint_omega",
    "analytic_constant_transition",
    "constant_transition_series",
    "coning_analytic_state",
    "constant_oracle",
    "coning_oracle",
]


# Entry (i, j) of R(p) is entry _RIGHT_TAKE[i, j] of (p, -p): 4 + k takes -p_k.
_RIGHT_TAKE = np.array([[0, 5, 6, 7], [1, 0, 3, 6], [2, 7, 0, 1], [3, 2, 5, 0]])


def right_matrix(p) -> np.ndarray:
    """Matrix R(p) = p0 I + A(p1, p2, p3) of the right multiplication
    q -> q (x) p, whose first column is p; every step map is one of these.
    Broadcasts: (..., 4) yields (..., 4, 4).  No input check."""
    p = np.asarray(p, dtype=float)
    return np.take(np.concatenate([p, -p], axis=-1), _RIGHT_TAKE, axis=-1)


def coefficient_matrix(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric rate matrix A(w) of the quaternion rate equation.

    For w = [w1, w2, w3] the first row is [0, -w1, -w2, -w3], the first
    column its negative transpose, and the lower-right 3x3 block is the
    negated cross-product matrix of w: A(w) = right_matrix((0, w)), with
    A.T = -A and A @ A = -|w|^2 I.  Broadcasts: (..., 3) yields (..., 4, 4).
    """
    w = np.asarray(omega, dtype=float)
    if w.shape[-1:] != (3,):
        raise ValueError(f"expected angular velocity with last axis 3, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("angular velocity must be finite")
    return right_matrix(np.concatenate([np.zeros_like(w[..., :1]), w], axis=-1))


class AngularVelocityProfile:
    """Time-to-angular-velocity mapping; subclasses implement omega_at."""

    def omega_at(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(AngularVelocityProfile):
    """Time-invariant angular velocity."""

    vector: tuple[float, float, float]

    def __post_init__(self):
        v = tuple(float(c) for c in self.vector)
        if len(v) != 3 or not all(math.isfinite(c) for c in v):
            raise ValueError("constant profile needs three finite components")
        object.__setattr__(self, "vector", v)

    def omega_at(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[...] = self.vector
        return out


@dataclass(frozen=True)
class ConingProfile(AngularVelocityProfile):
    """Precessing angular velocity of a coning motion.

    w(t) = [-w0 (1 - cos b), -w0 sin b sin(w0 t), w0 sin b cos(w0 t)]
    with spin rate w0 (rad/s) and half-cone angle b (rad).  The matching
    closed-form quaternion trajectory is :func:`coning_analytic_state`.
    """

    omega0: float
    beta: float

    def __post_init__(self):
        if self.omega0 == 0.0:
            raise ValueError("coning profile requires omega0 != 0")

    def omega_at(self, t):
        t = np.asarray(t, dtype=float)
        w0, b = self.omega0, self.beta
        out = np.empty(t.shape + (3,))
        out[..., 0] = -w0 * (1.0 - math.cos(b))
        out[..., 1] = -w0 * math.sin(b) * np.sin(w0 * t)
        out[..., 2] = w0 * math.sin(b) * np.cos(w0 * t)
        return out


@dataclass(frozen=True)
class TabulatedProfile(AngularVelocityProfile):
    """Piecewise-linear interpolant of time-ordered samples."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or vs.shape != (ts.size, 3):
            raise ValueError("need times of shape (n,) and values of shape (n, 3)")
        if ts.size < 2 or not np.all(np.diff(ts) > 0):
            raise ValueError("sample times must be strictly increasing (n >= 2)")
        ts.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)

    def omega_at(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise ProfileDomainError(
                f"sample time outside tabulated range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        out = np.empty(t.shape + (3,))
        for i in range(3):
            out[..., i] = np.interp(t, self.times, self.values[:, i])
        return out


@dataclass(frozen=True)
class FormulaProfile(AngularVelocityProfile):
    """Named closed-form profile; fn maps a time array to shape (..., 3)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def omega_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(self.fn(t), dtype=float)


class MidpointSamplingMode(enum.Enum):
    """How the step-midpoint angular velocity is obtained."""

    EXACT = "exact"
    LINEAR_INTERP = "interp"


def midpoint_omega(profile, t_k, tau, mode=MidpointSamplingMode.EXACT, t_end=None):
    """Angular velocity at the midpoint of the step [t_k, t_k + tau].

    EXACT evaluates the profile at t_k + tau/2.  LINEAR_INTERP averages the
    endpoint samples, i.e. the midpoint value of the chord, which avoids
    fractional-interval sampling when only endpoint data is available; its
    end sample is taken at t_end (default t_k + tau).
    """
    t_k = np.asarray(t_k, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("step size must be positive")
    if mode is MidpointSamplingMode.EXACT:
        return profile.omega_at(t_k + tau / 2.0)
    if mode is MidpointSamplingMode.LINEAR_INTERP:
        t_end = t_k + tau if t_end is None else t_end
        return 0.5 * (profile.omega_at(t_k) + profile.omega_at(t_end))
    raise ValueError(f"unknown sampling mode {mode!r}")


def analytic_constant_transition(omega: np.ndarray, tau: float) -> np.ndarray:
    """Exact one-step propagator exp(A(w) tau / 2) for constant w.

    Because A @ A = -|w|^2 I the exponential collapses to
    cos(|w| tau / 2) I + sin(|w| tau / 2) A / |w|; for w = 0 it is the
    identity (removable singularity).
    """
    w = np.asarray(omega, dtype=float)
    n = math.sqrt(float(w @ w))
    if n == 0.0:
        return I4.copy()
    half = 0.5 * n * tau
    return math.cos(half) * I4 + (math.sin(half) / n) * coefficient_matrix(w)


def constant_transition_series(omega, tau, tol: float = 1e-18) -> np.ndarray:
    """Truncated power series of exp(A(w) tau / 2); independent cross-check
    oracle for :func:`analytic_constant_transition`.

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


def coning_analytic_state(omega0: float, beta: float, t):
    """Closed-form quaternion trajectory of the coning motion.

    q(t) = [cos(b/2), 0, sin(b/2) cos(w0 t), sin(b/2) sin(w0 t)]; unit norm
    by construction and an exact solution of the rate equation for the
    ConingProfile angular velocity.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (4,))
    out[..., 0] = math.cos(beta / 2.0)
    out[..., 1] = 0.0
    out[..., 2] = math.sin(beta / 2.0) * np.cos(omega0 * t)
    out[..., 3] = math.sin(beta / 2.0) * np.sin(omega0 * t)
    return out


def constant_oracle(omega, q0, t0: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Exact-flow oracle t -> q(t) for constant angular velocity."""
    w = np.asarray(omega, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    n = math.sqrt(float(w @ w))
    aq0 = coefficient_matrix(w) @ q0 / n if n > 0.0 else np.zeros(4)

    def oracle(t):
        dt = np.asarray(t, dtype=float) - t0
        if n == 0.0:
            out = np.empty(dt.shape + (4,))
            out[...] = q0
            return out
        half = 0.5 * n * dt
        return np.cos(half)[..., None] * q0 + np.sin(half)[..., None] * aq0

    return oracle


def coning_oracle(omega0: float, beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Oracle t -> q(t) for the coning motion."""

    def oracle(t):
        return coning_analytic_state(omega0, beta, t)

    return oracle

"""Quaternion attitude-rate model.

The state is a unit quaternion q = [e0, e1, e2, e3] evolving under

    dq/dt = (1/2) A(w(t)) q,

where w(t) is the body angular-velocity vector and A is the skew-symmetric
coefficient matrix built by :func:`coefficient_matrix`.  This module holds
that matrix, the Hamilton product tables and the structure matrices built
from them, the catalogue of angular-velocity profiles used by the scenario
runner, the stage-rate sampling rule, and the closed-form reference solutions
used as oracles in tests and error reports.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProfileDomainError, require_finite

__all__ = [
    "I4",
    "SYMPLECTIC_J4",
    "LEFT_I",
    "LEFT_J",
    "LEFT_K",
    "right_matrix",
    "coefficient_matrix",
    "AngularVelocityProfile",
    "ConstantProfile",
    "ConingProfile",
    "TabulatedProfile",
    "FormulaProfile",
    "MidpointSamplingMode",
    "stage_rates",
    "midpoint_omega",
    "analytic_constant_transition",
    "coning_analytic_state",
    "constant_oracle",
    "coning_oracle",
]


# The Hamilton product as two sign tables.  Entry (i, j) of R(p), the matrix
# of q -> q (x) p, is entry _RIGHT_TAKE[i, j] of (p, -p): 4 + k takes -p_k.
# _LEFT_TAKE does the same for L(p), the matrix of q -> p (x) q.
_RIGHT_TAKE = np.array([[0, 5, 6, 7], [1, 0, 3, 6], [2, 7, 0, 1], [3, 2, 5, 0]])
_LEFT_TAKE = np.array([[0, 5, 6, 7], [1, 0, 7, 2], [2, 3, 0, 5], [3, 6, 1, 0]])


def _product_matrix(p, take: np.ndarray, out=None) -> np.ndarray:
    """R(p) for take = _RIGHT_TAKE, L(p) for take = _LEFT_TAKE; (..., 4)
    yields (..., 4, 4), written into out when given.  The indices are in
    range by construction: mode="clip" skips the bounds check and lets the
    gather write straight into out, with no buffer."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([p, -p], axis=-1).take(take, axis=-1, out=out, mode="clip")


def right_matrix(p, out=None) -> np.ndarray:
    """Matrix R(p) = p0 I + A(p1, p2, p3) of the right multiplication
    q -> q (x) p, whose first column is p; every step map is one of these.
    Broadcasts: (..., 4) yields (..., 4, 4), written into out (a float
    array of that shape) when given.  No input check."""
    return _product_matrix(p, _RIGHT_TAKE, out)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of a with no -0.0 entry."""
    a = a + 0.0
    a.setflags(write=False)
    return a


I4 = _frozen(np.eye(4))

# Block structure matrix [[0, I2], [-I2, 0]], pairing (e0, e2) with (e1, e3):
# the right multiplication q -> q (x) (-j).  It does not commute with the rate
# matrix A(w) (itself the right multiplication q -> q (x) (0, w)) unless w is
# parallel to e2: the exact flow exp(tau A/2) does not preserve it.  It is
# kept because the time-varying map's correction term beta_k J is built on it.
SYMPLECTIC_J4 = _frozen(right_matrix((0.0, 0.0, -1.0, 0.0)))

# Left multiplications q -> i (x) q, j (x) q, k (x) q.  They are skew, square
# to -I and commute with every right multiplication, hence with every A(w)
# and every step map built from it: these are the structure matrices the
# quaternion flow preserves.  -LEFT_I = diag(J2, J2), J2 = [[0, 1], [-1, 0]],
# is the canonical structure matrix of the pairs (e0, e1) and (e2, e3).
LEFT_I, LEFT_J, LEFT_K = (_frozen(_product_matrix(u, _LEFT_TAKE)) for u in I4[1:])


def coefficient_matrix(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric rate matrix A(w) of the quaternion rate equation.

    For w = [w1, w2, w3] the first row is [0, -w1, -w2, -w3], the first
    column its negative transpose, and the lower-right 3x3 block is the
    negated cross-product matrix of w: A(w) = right_matrix((0, w)), with
    A.T = -A and A @ A = -|w|^2 I.  Broadcasts: (..., 3) yields (..., 4, 4).
    """
    w = rate_array(omega)
    if not np.all(np.isfinite(w)):
        raise ValueError("angular velocity must be finite")
    return right_matrix(np.concatenate([np.zeros_like(w[..., :1]), w], axis=-1))


def rate_array(omega) -> np.ndarray:
    """omega as a float array (..., 3) of rate samples, else ValueError."""
    w = np.asarray(omega, dtype=float)
    if w.shape[-1:] != (3,):
        raise ValueError(f"expected angular velocity with last axis 3, got {w.shape}")
    return w


def require_rates(*rates) -> None:
    """Every step builder's check of the rate samples it draws: three
    components each (see :func:`rate_array`), and ConsistencyError naming the
    lowest step whose rate is not finite in any of them, broadcast together.
    Each is tested whole first (reduced as in require_finite): joining
    (K, 3) arrays costs ~8x as much."""
    for w in rates:
        rate_array(w)
    for w in rates:
        if not np.logical_and.reduce(np.isfinite(w), axis=None):
            require_finite(np.concatenate(np.broadcast_arrays(*rates), axis=-1), "rate")


def zero_at_rest(x, w, n2):
    """x, with 0 at each step whose rate w (..., 3) is exactly zero: there a
    product of tau^2 (inf past tau ~1.3e154) and of n2 = |w|^2, shaped like
    the steps, would be inf * 0.  Only steps with n2 == 0 are tested, on the
    rate itself: a nonzero rate below ~1e-162 has n2 == 0 too, and keeps x."""
    rest = n2 == 0.0
    if not np.logical_or.reduce(rest, axis=None):
        return x
    rest &= ~np.any(w, axis=-1).reshape(np.shape(rest))
    return np.where(rest, 0.0, x)


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
    """How every stage rate of a time-varying step is drawn: see :func:`stage_rates`."""

    EXACT = "exact"
    LINEAR_INTERP = "interp"


def stage_rates(profile, t, tau, t_end, fractions, mode):
    """Rates (..., 3) at the fractions c of the steps [t, t_end], one array per
    c; t_end defaults to t + tau.  EXACT evaluates the profile at t + c tau (t
    itself at c = 0, t_end at c = 1).  LINEAR_INTERP takes the chord
    (1 - c) w(t) + c w(t_end) of the endpoint samples: only endpoint data is
    needed, but every method is then at most second order.  A chord of
    finite samples is finite."""
    t_end = t + tau if t_end is None else t_end
    if mode is MidpointSamplingMode.EXACT:
        return [profile.omega_at(t if c == 0.0 else t_end if c == 1.0 else t + c * tau)
                for c in fractions]
    if mode is not MidpointSamplingMode.LINEAR_INTERP:
        raise ValueError(f"unknown sampling mode {mode!r}")
    w0 = profile.omega_at(t) if min(fractions) < 1.0 else None
    w1 = profile.omega_at(t_end) if max(fractions) > 0.0 else None
    return [w0 if c == 0.0 else w1 if c == 1.0 else (1.0 - c) * w0 + c * w1
            for c in fractions]


def midpoint_omega(profile, t_k, tau, mode=MidpointSamplingMode.EXACT, t_end=None):
    """Angular velocity at the midpoint of the step [t_k, t_k + tau]: the
    :func:`stage_rates` at c = 1/2.  A step that is not finite, then one
    that is not positive, raises ValueError."""
    t_k = np.asarray(t_k, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("step size must be finite")
    if not (tau > 0.0).all():
        raise ValueError("step size must be positive")
    return stage_rates(profile, t_k, tau, t_end, (0.5,), mode)[0]


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

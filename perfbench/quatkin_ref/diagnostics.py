"""Verification instruments: norm and sub-norm histories, orthogonality and
symplecticity defects, oracle error reports, convergence-order estimates,
and the closed-form-vs-exact-rotation gap function."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .linalg import I4, SYMPLECTIC_J4, frobenius_norm
from .trajectory import Trajectory

__all__ = [
    "ErrorReport",
    "DefectSeries",
    "norm_history",
    "subnorm_pair_history",
    "orthogonality_defect",
    "symplecticity_defect",
    "component_errors",
    "convergence_order",
    "euler_formula_gap",
    "cosine_fit_residual",
]


@dataclass(frozen=True)
class ErrorReport:
    """Max absolute errors of a trajectory against an oracle."""

    max_component_error: np.ndarray  # (4,) per quaternion component
    max_norm_deviation: float
    t_max_error: float
    samples: int

    @property
    def max_error(self) -> float:
        return float(np.max(self.max_component_error))


@dataclass(frozen=True)
class DefectSeries:
    """Defects on a step-halving ladder plus the implied order estimate."""

    taus: tuple[float, ...]
    defects: tuple[float, ...]

    def __post_init__(self):
        if len(self.taus) < 2 or len(self.taus) != len(self.defects):
            raise ValueError("need matching taus/defects with at least two rungs")
        for a, b in zip(self.taus, self.taus[1:]):
            if abs(a / b - 2.0) > 1e-9:
                raise ValueError(f"taus must halve: got {a} -> {b}")

    @property
    def estimated_order(self) -> float:
        if any(d <= 0.0 for d in self.defects):
            raise DegenerateDataError("zero defect in ladder; order undefined")
        ratios = [
            math.log2(a / b) for a, b in zip(self.defects, self.defects[1:])
        ]
        return float(np.mean(ratios))

    def halving_ratios(self) -> list[float]:
        return [b / a for a, b in zip(self.defects, self.defects[1:])]


def norm_history(traj: Trajectory) -> np.ndarray:
    """(n, 2) array of (t, |q|) along a trajectory."""
    return np.column_stack([traj.times, traj.norms()])


def subnorm_pair_history(traj: Trajectory, t_start: float = 0.0) -> np.ndarray:
    """(n, 3) array of (t, e0^2 + e1^2, e2^2 + e3^2) for t >= t_start.

    These pair sums are conserved once the second and third rate components
    vanish; t_start lets asymptotic profiles skip their transient.
    """
    keep = traj.times >= t_start
    s = traj.states[keep]
    return np.column_stack(
        [traj.times[keep], s[:, 0] ** 2 + s[:, 1] ** 2, s[:, 2] ** 2 + s[:, 3] ** 2]
    )


def orthogonality_defect(g: np.ndarray) -> float:
    """Frobenius norm of G.T @ G - I."""
    g = np.asarray(g, dtype=float)
    return frobenius_norm(g.T @ g - I4)


def symplecticity_defect(g: np.ndarray) -> float:
    """Frobenius norm of G.T @ J @ G - J for the standard structure matrix."""
    g = np.asarray(g, dtype=float)
    return frobenius_norm(g.T @ SYMPLECTIC_J4 @ g - SYMPLECTIC_J4)


def component_errors(traj: Trajectory, oracle) -> ErrorReport:
    """Compare a trajectory against an oracle evaluated at its timestamps.

    The oracle is called with the trajectory's own time array (no
    interpolation of the numerical output).  Reports the per-component max
    absolute error, the max norm deviation from 1, and the time at which
    the overall max error occurs.
    """
    ref = np.asarray(oracle(traj.times), dtype=float)
    if ref.shape != traj.states.shape:
        raise ValueError(f"oracle returned shape {ref.shape}, expected {traj.states.shape}")
    abs_err = np.abs(traj.states - ref)
    per_component = abs_err.max(axis=0)
    worst_idx = int(np.argmax(abs_err.max(axis=1)))
    norm_dev = float(np.max(np.abs(traj.norms() - 1.0)))
    return ErrorReport(
        max_component_error=per_component,
        max_norm_deviation=norm_dev,
        t_max_error=float(traj.times[worst_idx]),
        samples=len(traj.states),
    )


def convergence_order(errors) -> float:
    """Mean log2 error ratio over a step-halving ladder.

    `errors` is a sequence of (tau, error) pairs with tau halving between
    consecutive entries.  Raises DegenerateDataError when an error is zero.
    """
    pairs = [(float(t), float(e)) for t, e in errors]
    if len(pairs) < 2:
        raise ValueError("need at least two (tau, error) entries")
    for (t0, _), (t1, _) in zip(pairs, pairs[1:]):
        if abs(t0 / t1 - 2.0) > 1e-9:
            raise ValueError(f"taus must halve: got {t0} -> {t1}")
    if any(e == 0.0 for _, e in pairs):
        raise DegenerateDataError("zero error in ladder; order undefined")
    ratios = [math.log2(e0 / e1) for (_, e0), (_, e1) in zip(pairs, pairs[1:])]
    return float(np.mean(ratios))


def euler_formula_gap(x):
    """Gap between the exact half-angle rotation and its Cayley closed form.

    h(x) = max(|cos(x/2) - cos(2 atan(x/4))|, |sin(x/2) - sin(2 atan(x/4))|),
    the per-step accuracy envelope of the constant-rate map at x = |w| tau.
    Accepts scalars or arrays (x >= 0).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gap argument must be non-negative")
    theta = 2.0 * np.arctan(x / 4.0)
    gap = np.maximum(
        np.abs(np.cos(x / 2.0) - np.cos(theta)),
        np.abs(np.sin(x / 2.0) - np.sin(theta)),
    )
    return float(gap) if gap.ndim == 0 else gap


def cosine_fit_residual(series, omega: float) -> float:
    """RMS residual of a least-squares fit c*cos(omega t + phi).

    The fit is linearized as a cos(omega t) + b sin(omega t).  `series` is a
    sequence of (t, value) pairs, at least 8 of them.  Raises
    DegenerateDataError when all values are identical.
    """
    data = np.asarray(series, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 8:
        raise ValueError("need at least 8 (t, value) samples")
    t, y = data[:, 0], data[:, 1]
    if np.all(y == y[0]):
        raise DegenerateDataError("all samples equal; cosine fit is degenerate")
    design = np.column_stack([np.cos(omega * t), np.sin(omega * t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(np.sqrt(np.mean(resid * resid)))

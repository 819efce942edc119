"""Verification instruments: symplecticity defects, oracle error reports,
convergence-order estimates, and the closed-form-vs-exact-rotation gap
function."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .model import SYMPLECTIC_J4
from .trajectory import Trajectory

__all__ = [
    "ErrorReport",
    "DefectSeries",
    "symplecticity_defect",
    "component_errors",
    "convergence_order",
    "euler_formula_gap",
    "frobenius_norm",
]


@dataclass(frozen=True)
class ErrorReport:
    """Max absolute errors of a trajectory against an oracle."""

    max_component_error: np.ndarray  # (4,) per quaternion component

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
        """:func:`convergence_order` of the ladder; DegenerateDataError when a
        defect is zero."""
        return convergence_order(zip(self.taus, self.defects))


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def symplecticity_defect(g: np.ndarray, structure: np.ndarray = SYMPLECTIC_J4) -> float:
    """Frobenius norm of G.T @ S @ G - S for a structure matrix S.

    The default S = SYMPLECTIC_J4 is a right multiplication that the exact
    flow does not preserve, so every consistent one-step map has a defect of
    order tau against it.  The left multiplications LEFT_I, LEFT_J and
    LEFT_K commute with every rate matrix A(w): the exact flow, the SGA maps
    and GL2 preserve them to rounding, while EUB (norm-damping) and RK4
    (norm-drifting) do not.
    """
    g = np.asarray(g, dtype=float)
    s = np.asarray(structure, dtype=float)
    return frobenius_norm(g.T @ s @ g - s)


def component_errors(traj: Trajectory, oracle) -> ErrorReport:
    """Compare a trajectory against an oracle evaluated at its timestamps.

    The oracle is called with the trajectory's own time array (no
    interpolation of the numerical output).  Reports the per-component max
    absolute error.
    """
    ref = np.asarray(oracle(traj.times), dtype=float)
    if ref.shape != traj.states.shape:
        raise ValueError(f"oracle returned shape {ref.shape}, expected {traj.states.shape}")
    # Errors component-major, (4, n): numpy reduces the short rows of an
    # (n, 4) array one at a time, ~10x slower than whole columns.
    abs_err = np.subtract(traj.states.T, ref.T, out=np.empty(ref.shape[::-1]))
    np.abs(abs_err, out=abs_err)
    return ErrorReport(max_component_error=abs_err.max(axis=1))


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
    Accepts scalars or arrays of finite x >= 0.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("gap argument must be finite and non-negative")
    theta = 2.0 * np.arctan(x / 4.0)
    gap = np.maximum(
        np.abs(np.cos(x / 2.0) - np.cos(theta)),
        np.abs(np.sin(x / 2.0) - np.sin(theta)),
    )
    return float(gap) if gap.ndim == 0 else gap

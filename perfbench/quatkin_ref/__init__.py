"""Frozen copy of quatkin, the benchmark's speed reference (see reference.py).

It is src/quatkin as it stood when the benchmark was defined.  It must not
follow the program: it is the fixed work that operations are timed against.

Structure-preserving integration of quaternion attitude kinematics.

The package propagates a unit quaternion under dq/dt = (1/2) A(w(t)) q with
closed-form orthogonal transition maps (norm-preserving by construction),
alongside RK4 / backward-Euler / Gauss-Legendre baselines, analytic oracles,
verification diagnostics, and a scenario CLI.
"""
from .baselines import (
    BaselineMethod,
    euler_backward_step,
    gauss_legendre_step,
    integrate_baseline,
    rk4_step,
)
from .diagnostics import (
    DefectSeries,
    ErrorReport,
    component_errors,
    convergence_order,
    cosine_fit_residual,
    euler_formula_gap,
    norm_history,
    orthogonality_defect,
    subnorm_pair_history,
    symplecticity_defect,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateDataError,
    InvalidHorizonError,
    NonUnitStateError,
    PreconditionError,
    ProfileDomainError,
    QuatkinError,
    SingularMatrixError,
)
from .linalg import SYMPLECTIC_J4, frobenius_norm, mat_mul, solve_linear_4
from .model import (
    AngularVelocityProfile,
    ConingProfile,
    ConstantProfile,
    FormulaProfile,
    MidpointSamplingMode,
    TabulatedProfile,
    analytic_constant_transition,
    coefficient_matrix,
    coning_analytic_state,
    coning_oracle,
    constant_oracle,
    constant_transition_series,
    midpoint_omega,
    omega_at,
)
from .scenario import (
    PROFILE_REGISTRY,
    RunArtifacts,
    ScenarioConfig,
    TimingRecord,
    defect_ladder,
    emit_series,
    emit_summary,
    one_step_matrix,
    parse_config,
    profile_from_name,
    registry_names,
    run_scenario,
    run_sweep,
)
from .symplectic import (
    AutonomousTransition,
    NonAutonomousStepCoefficients,
    StepSizeWarning,
    autonomous_transition,
    b_matrix,
    cayley_closed_form,
    integrate_autonomous,
    integrate_nonautonomous,
    nonautonomous_transition,
    reduced_2x2_transition,
)
from .trajectory import Trajectory, check_unit_quaternion, step_schedule

__version__ = "0.1.0"

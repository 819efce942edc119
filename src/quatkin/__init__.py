"""Structure-preserving integration of quaternion attitude kinematics.

The package propagates a unit quaternion under dq/dt = (1/2) A(w(t)) q with
closed-form orthogonal transition maps (norm-preserving by construction),
alongside RK4 / backward-Euler / Gauss-Legendre baselines, analytic oracles,
verification diagnostics, and a scenario CLI.
"""
from .baselines import (
    BaselineMethod,
    baseline_steps,
    integrate_baseline,
)
from .diagnostics import (
    DefectSeries,
    ErrorReport,
    component_errors,
    convergence_order,
    euler_formula_gap,
    frobenius_norm,
    symplecticity_defect,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateDataError,
    InvalidHorizonError,
    NonUnitStateError,
    ProfileDomainError,
    QuatkinError,
    SingularMatrixError,
)
from .model import (
    LEFT_I,
    LEFT_J,
    LEFT_K,
    SYMPLECTIC_J4,
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
    midpoint_omega,
    right_matrix,
)
from .scenario import (
    PROFILE_REGISTRY,
    RunArtifacts,
    ScenarioConfig,
    TimingRecord,
    config_document,
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
    StepSizeWarning,
    autonomous_transition,
    b_matrix,
    cayley_steps,
    corrected_rate,
    integrate_autonomous,
    integrate_nonautonomous,
    nonautonomous_transition,
)
from .trajectory import Trajectory, check_unit_quaternion, propagate

__version__ = "0.1.0"

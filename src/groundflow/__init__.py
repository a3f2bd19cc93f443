"""Numerical lab for ground states, comparison profiles and heat-flow
attractors on flat periodic grids."""

from .comparison import (
    Admissibility,
    ExtremaCoeffs,
    PhiProfile,
    ScalarTrajectory,
    check_admissible,
    classify_fixed_points,
    critical_root_y3,
    curvature_problem_inputs,
    decay_rate_mu,
    extrema_coeffs,
    make_profile,
    phi,
    phi_prime,
    phi_roots,
    profile_from_coeffs,
    scalar_flow,
)
from .circle_dynamics import (
    OrbitResult,
    PlanarState,
    closed_form_stationary,
    fixed_points_and_types,
    hamiltonian,
    integrate_orbit,
    periodicity_class,
    separatrix_level,
)
from .curvature import (
    TwistedProduct,
    conformal_change_residual,
    field_to_csv,
    ground_state_warp,
    mixed_scalar_curvature,
    scaled_mixed_curvature,
)
from .errors import (
    AdmissibilityError,
    BasinError,
    BlowdownError,
    ConvergenceError,
    GroundflowError,
    PhaseSpaceExitError,
    PositivityLossError,
)
from .grid import (
    Grid,
    ScalarField,
    apply_laplacian,
    make_circle_grid,
    make_torus_grid,
)
from .heatflow import (
    FlowTrace,
    ProblemData,
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    comparison_principle_test,
    evolve_fixed,
    evolve_to_attractor,
    initial_condition_check,
    stationary_residual,
    stationary_residual_fields,
    step,
    trace_to_csv,
)
from .param_sweep import (
    ParamFamily,
    SweepResult,
    smoothness_diagnostic,
    sweep_attractor,
    sweep_ground_state,
    sweep_to_csv,
)
from .schrodinger import (
    SpectralResult,
    ground_state,
    shift_for_positivity,
    spectrum_oracle,
)

__version__ = "0.1.0"

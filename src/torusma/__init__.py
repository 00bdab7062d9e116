"""Spectral solver and verification suites for the complex Monge-Ampere
equation det(g + ddbar phi) = C e^F det(g) on flat complex tori."""

__version__ = "1.0.0"

from .grid import (
    Grid,
    GridMismatchError,
    PeriodicScalarField,
    make_field,
    mean_zero_project,
    partial_z,
    random_band_limited,
)
from .geometry import (
    HermitianMetricField,
    SingularMetricError,
    christoffel,
    christoffel_trace,
    eigenvalue_fields,
    first_chern_integral,
    flat_metric,
    hermitian_hessian,
    inverse_field,
    laplace_beltrami,
    log_det_field,
    log_volume_gradient,
    metric_from_potential,
    positivity_check,
    ricci_form,
    volume,
)
from .forms import (
    FormSum,
    PqForm,
    d_c,
    d_sum,
    del_,
    delbar,
    exterior_d,
    form_power,
    form_sum,
    integrate_top,
    kahler_form,
    scalar_form,
    uniqueness_functional,
    wedge,
    zero_form,
)
from .solver import (
    ContinuityStep,
    KrylovConvergenceError,
    MetricIterate,
    NonPositiveMetricError,
    SolveResult,
    SolverConfig,
    continuity_solve,
    linearized_apply,
    ma_residual,
    metric_iterate,
    solve_linearized,
    yau_estimate_report,
)
from .fileio import (
    SnapshotFormatError,
    read_field,
    read_metric,
    read_trace,
    sha256_file,
    write_field,
    write_metric,
    write_trace,
)
from .expressions import Expression, ExpressionError, parse_expression
from .verification import (
    SUITE_NAMES,
    THRESHOLDS,
    SuiteCheck,
    SuiteReport,
    finite_difference_oracle,
    manufactured_forcing,
    manufactured_potential_n1,
    manufactured_potential_n2,
    poisson_forcing_n1,
    poisson_oracle_n1,
    ricci_flat_background_n2,
    run_suite,
)

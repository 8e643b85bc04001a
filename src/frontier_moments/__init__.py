"""Frontier estimation from kernel regression on high-order moments."""

from .estimator import (
    DegenerateGridError,
    EstimateRecord,
    EstimatorConfig,
    RateSchedule,
    ScheduleError,
    estimate_at,
    estimate_grid,
    moment_ratio_pair,
    rate_exponents,
    schedule,
    sup_error,
    w_rate,
)
from .kernels import PROFILES, KernelSpec, kernel_from_name
from .model import (
    DEFAULT_OMEGA,
    CovariateDensity,
    FrontierModel,
    MarginalDensity,
    ModelError,
    Sample,
    ScalarField,
    ValidationReport,
    evaluation_grid,
    field_range,
    load_model,
    model_from_dict,
    model_to_dict,
    quantile,
    sample,
    save_model,
    survival,
    survival_values,
    validate,
)
from .moments import (
    InsufficientLocalDataError,
    ScaledMoment,
    effective_count,
    moment_ratio,
    scaled_moment,
)
from .oracle import (
    LOG_GAMMA_RATIO_BOUND,
    MomentDecomposition,
    log_beta,
    log_gamma_ratio,
    moment_brute,
    moment_decomposition,
    moment_equivalent,
    moment_ratio_exact,
    oracle_report,
    ratio_expansion,
    smoothed_moment,
    smoothed_ratio,
)
from .study import (
    DatasetFormatError,
    StudyConfig,
    cell_seed,
    moment_concentration,
    read_dataset,
    run_study,
    write_dataset,
    write_estimates,
    write_report,
)

__version__ = "0.1.0"

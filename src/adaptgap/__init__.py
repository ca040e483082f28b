"""Randomized mean computation on mixed-norm spaces and its adaption gap.

The package provides the mixed-norm spaces themselves, a counting query
oracle on which a non-adaptive run answers only its fixed plan, the
randomized estimators, adversarial instance samplers, weighted direct sums,
and a seeded experiment harness with a CLI front end.
"""

from .direct_sum import (
    DirectSumElement,
    DirectSumSpec,
    ds_estimate,
    ds_integral,
    level_allocation,
)
from .errors import (
    AdaptGapError,
    BudgetExceeded,
    DisciplineViolation,
    EmptyInput,
    IndexOutOfRange,
    InsufficientPoints,
    InvalidExponent,
    InvalidParameters,
    NonfiniteError,
    NonpositiveError,
    PreconditionViolated,
    RegimeViolation,
)
from .estimators import (
    EstimateReport,
    adaptive_mean_a3,
    allocate_samples,
    default_probe_count,
    draw_plan,
    mc_mean_a2,
    median,
    norm_est_a1,
    run_a2,
    run_a3,
)
from .hard_instances import HardFamily, Variant
from .harness import (
    EstimatorKind,
    RateFit,
    Regime,
    ds_experiment,
    gap_experiment,
    norm_deviation_experiment,
    rate_experiment,
    rate_fit,
    rms_error,
)
from .oracle import (
    Mode,
    Plan,
    QueryTape,
    open_adaptive,
    open_nonadaptive,
)
from .rng import RngStream
from .spaces import (
    INF,
    MixedMatrix,
    ProblemSpec,
    RowChunk,
    mixed_norm,
    mixed_norm_many,
    row_norm,
    scalar_mean,
)

__version__ = "0.1.0"

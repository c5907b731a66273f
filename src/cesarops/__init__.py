"""Integration operators induced by radial measures on the unit disk.

The package computes the coefficient and integral forms of the
measure-induced summation operator, classifies the inducing measure by
Carleson-type conditions (tail quotients, moment asymptotics, weighted
disk integrals), estimates the function-space norms in which the
operator acts, and runs the verification experiments that play all of
these against each other.
"""

from cesarops.carleson import (
    CarlesonParams,
    CarlesonVerdict,
    CriterionResult,
    TrendFit,
    carleson_integral,
    carleson_quotient,
    classify_measure,
    classify_moments,
    classify_tail,
    conclusive_agreement,
    dyadic_t_ladder,
    fit_moment_decay,
    integral_profile,
    trend_label,
)
from cesarops.catalog import (
    CATALOG_MEASURES,
    builtin_function_names,
    builtin_measure_names,
    catalog_measures,
    load_builtin_measure,
    resolve_function,
    resolve_measure,
)
from cesarops.measure import (
    MeasureSpecError,
    MomentSequence,
    PointMass,
    PowerLogDensity,
    RadialMeasure,
    TabulatedDensity,
    measure_from_dict,
    measure_to_dict,
    moment,
    moment_via_tail,
    moments,
    tail,
    total_mass,
)
from cesarops.norms import (
    NormEstimate,
    besov_norm,
    bloch_norm,
    growth_ratio,
    integral_mean,
    mean_lipschitz_norm,
)
from cesarops.quadrature import QuadratureError, QuadResult, integrate_adaptive
from cesarops.series import (
    FunctionSpecError,
    PowerSeries,
    cesaro_like,
    cesaro_like_derivative_eval,
    cesaro_like_integral_eval,
    derivative,
    evaluate,
    function_from_dict,
    log_series,
    partial_sums,
    test_function,
)
from cesarops.verify import (
    AgreementEntry,
    AgreementMatrix,
    ExperimentConfig,
    VerificationReport,
    boundedness_experiment,
    compactness_experiment,
    lower_bound_statistic,
    proposition21_experiment,
)

__version__ = "1.0.0"

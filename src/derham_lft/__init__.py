"""Solutions and measure analysis for two-branch functional equations
driven by linear fractional (Moebius) maps on [0, 1]."""

__version__ = "0.1.0"

from .analysis import (
    ABSOLUTELY_CONTINUOUS,
    SINGULAR,
    ClassificationReport,
    DimensionBounds,
    classify,
    dimension_bounds,
    repulsion_radius,
    singular_dimension_bound,
)
from .errors import (
    ConditionHoldsError,
    DeRhamError,
    DomainError,
    FormMismatchError,
    NonConvergenceError,
    NotAbsolutelyContinuousError,
    PoleError,
    ValidationError,
    ZeroMatrixError,
)
from .measure import (
    DEFAULT_SEED,
    MeasureNode,
    SamplePath,
    digit_probability,
    entropy_rate_estimate,
    interval_measure,
    mass_from_word,
    ratio_state,
    sample_path,
    walk_tree,
)
from .numerics import (
    MoebiusMatrix,
    Scalar,
    apply_mobius,
    identity_matrix,
    is_exact,
    mat_mul,
    mobius_derivative,
    renormalize,
    transpose,
)
from .presets import force_approx, lebesgue_system, walk_system
from .solution import (
    ValueEnclosure,
    ac_density,
    address_interval,
    closed_form_solution,
    dyadic_digits,
    dyadic_enclosure,
    dyadic_value_table,
    digits_of,
    evaluate,
    functional_equation_residual,
    inverse_evaluate,
    normal_form,
    value_at_dyadic,
    word_matrix,
)
from .stationary import (
    StationarityReport,
    doubling_map_change_of_measure,
    inverse_measure_interval,
    stationarity_check,
)
from .system import (
    DeRhamSystem,
    ac_conditions,
    ac_identity_residuals,
    binary_entropy,
    prob_digit0,
    prob_digit1,
    transpose_fixed_points,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

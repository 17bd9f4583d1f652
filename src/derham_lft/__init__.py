"""Solutions and measure analysis for two-branch functional equations
driven by linear fractional (Moebius) maps on [0, 1].

Public names resolve on first use (PEP 562): `import derham_lft` loads no
submodule, and ``derham_lft.evaluate`` imports ``solution`` (and what it
needs) the first time it is read.  So a CLI request, which imports only
the modules its command runs, never compiles the rest of the package.
Submodules are attributes as well, public (``derham_lft.measure``) or
private (``derham_lft._kernels``).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": """ABSOLUTELY_CONTINUOUS SINGULAR ClassificationReport DimensionBounds
        classify dimension_bounds repulsion_radius singular_dimension_bound""",
    "errors": """ConditionHoldsError DeRhamError DomainError FormMismatchError
        NonConvergenceError NotAbsolutelyContinuousError PoleError ValidationError
        ZeroMatrixError""",
    "measure": """DEFAULT_SEED MeasureNode SamplePath digit_probability
        entropy_rate_estimate interval_measure mass_from_word ratio_state sample_path
        walk_tree""",
    "numerics": """MoebiusMatrix Scalar apply_mobius identity_matrix is_exact mat_mul
        mobius_derivative renormalize transpose""",
    "presets": "force_approx lebesgue_system walk_system",
    "solution": """ValueEnclosure ac_density address_interval closed_form_solution
        dyadic_digits dyadic_enclosure dyadic_value_table digits_of evaluate
        functional_equation_residual inverse_evaluate normal_form value_at_dyadic
        word_matrix""",
    "stationary": """StationarityReport doubling_map_change_of_measure
        inverse_measure_interval stationarity_check""",
    "system": """DeRhamSystem ac_conditions ac_identity_residuals binary_entropy
        prob_digit0 prob_digit1 transpose_fixed_points validate""",
}

#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

_SUBMODULES = {*_EXPORTS, "_kernels", "_words", "cli"}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})

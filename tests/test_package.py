"""The package namespace: public names resolve on first use, to the same
objects as before, and a bare import loads no submodule."""

import importlib
import subprocess
import sys

import pytest

import derham_lft

#: Each public name and the submodule that defines it.
DEFINED_IN = {
    "analysis": [
        "ABSOLUTELY_CONTINUOUS", "SINGULAR", "ClassificationReport", "DimensionBounds",
        "classify", "dimension_bounds", "repulsion_radius", "singular_dimension_bound",
    ],
    "errors": [
        "ConditionHoldsError", "DeRhamError", "DomainError", "FormMismatchError",
        "NonConvergenceError", "NotAbsolutelyContinuousError", "PoleError",
        "ValidationError", "ZeroMatrixError",
    ],
    "measure": [
        "DEFAULT_SEED", "MeasureNode", "SamplePath", "digit_probability",
        "entropy_rate_estimate", "interval_measure", "mass_from_word", "ratio_state",
        "sample_path", "walk_tree",
    ],
    "numerics": [
        "MoebiusMatrix", "Scalar", "apply_mobius", "identity_matrix", "is_exact",
        "mat_mul", "mobius_derivative", "renormalize", "transpose",
    ],
    "presets": ["force_approx", "lebesgue_system", "walk_system"],
    "solution": [
        "ValueEnclosure", "ac_density", "address_interval", "closed_form_solution",
        "digits_of", "dyadic_digits", "dyadic_enclosure", "dyadic_value_table",
        "evaluate", "functional_equation_residual", "inverse_evaluate", "normal_form",
        "value_at_dyadic", "word_matrix",
    ],
    "stationary": [
        "StationarityReport", "doubling_map_change_of_measure",
        "inverse_measure_interval", "stationarity_check",
    ],
    "system": [
        "DeRhamSystem", "ac_conditions", "ac_identity_residuals", "binary_entropy",
        "prob_digit0", "prob_digit1", "transpose_fixed_points", "validate",
    ],
}

ALL = [
    "ABSOLUTELY_CONTINUOUS", "ClassificationReport", "ConditionHoldsError",
    "DEFAULT_SEED", "DeRhamError", "DeRhamSystem", "DimensionBounds", "DomainError",
    "FormMismatchError", "MeasureNode", "MoebiusMatrix", "NonConvergenceError",
    "NotAbsolutelyContinuousError", "PoleError", "SINGULAR", "SamplePath", "Scalar",
    "StationarityReport", "ValidationError", "ValueEnclosure", "ZeroMatrixError",
    "ac_conditions", "ac_density", "ac_identity_residuals", "address_interval",
    "analysis", "apply_mobius", "binary_entropy", "classify", "closed_form_solution",
    "digit_probability", "digits_of", "dimension_bounds",
    "doubling_map_change_of_measure", "dyadic_digits", "dyadic_enclosure",
    "dyadic_value_table", "entropy_rate_estimate", "errors", "evaluate",
    "force_approx", "functional_equation_residual", "identity_matrix",
    "interval_measure", "inverse_evaluate", "inverse_measure_interval", "is_exact",
    "lebesgue_system", "mass_from_word", "mat_mul", "measure", "mobius_derivative",
    "normal_form", "numerics", "presets", "prob_digit0", "prob_digit1", "ratio_state",
    "renormalize", "repulsion_radius", "sample_path", "singular_dimension_bound",
    "solution", "stationarity_check", "stationary", "system", "transpose",
    "transpose_fixed_points", "validate", "value_at_dyadic", "walk_system",
    "walk_tree", "word_matrix",
]


def _fresh(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return run.stdout


def test_all_is_unchanged():
    assert len(ALL) == 73
    assert derham_lft.__all__ == ALL
    assert sorted([*DEFINED_IN, *(n for names in DEFINED_IN.values() for n in names)]) == ALL


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_names_are_the_defining_modules_objects(module):
    home = importlib.import_module(f"derham_lft.{module}")
    assert getattr(derham_lft, module) is home
    for name in DEFINED_IN[module]:
        assert getattr(derham_lft, name) is getattr(home, name), name


def test_dir_covers_every_name():
    assert set(ALL) | {"_kernels", "_words", "cli"} <= set(dir(derham_lft))


def test_private_submodules_resolve():
    # A fresh process: here other tests may have imported them already.
    out = _fresh(
        "import derham_lft as dl\n"
        "print(dl._kernels.__name__, dl._words.__name__, dl.cli.__name__, "
        "callable(dl._kernels.fill_path))"
    )
    assert out == "derham_lft._kernels derham_lft._words derham_lft.cli True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        derham_lft.no_such_name
    assert not hasattr(derham_lft, "check_bits")
    with pytest.raises(ImportError):
        from derham_lft import no_such_name  # noqa: F401


def test_bare_import_loads_no_submodule():
    out = _fresh(
        "import sys, derham_lft\n"
        "print(sorted(m for m in sys.modules if m.startswith('derham_lft.')), "
        "'numpy' in sys.modules)"
    )
    assert out == "[] False\n"


def test_star_import_binds_every_name():
    out = _fresh(
        "import derham_lft\n"
        "namespace = {}\n"
        "exec('from derham_lft import *', namespace)\n"
        "names = sorted(n for n in namespace if n != '__builtins__')\n"
        "assert names == derham_lft.__all__, names\n"
        "assert all(namespace[n] is getattr(derham_lft, n) for n in names)\n"
        "print(len(names))"
    )
    assert out == "73\n"

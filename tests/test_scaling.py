"""A matrix and its positive multiples are one map: scaling A0 and A1 of a
float system by a power of two changes no result bit, and no verdict.

Every float test on matrix or word entries (the pole tests, the inline
bounds of the descents, the absolute-continuity identities, b0 = 0) is
relative to those entries.  A power of two scales every product exactly,
and a float word basis scales a factor far from unit scale back into its
exponent band, where every 16-factor word product stays in the normal
range, so each function below must give the same float.hex from 2**-300
to 2**300."""

import itertools
import json
import math
import random
from array import array
from fractions import Fraction

import pytest

from derham_lft import (
    MoebiusMatrix,
    ValidationError,
    classify,
    dimension_bounds,
    doubling_map_change_of_measure,
    dyadic_enclosure,
    dyadic_value_table,
    entropy_rate_estimate,
    evaluate,
    force_approx,
    interval_measure,
    inverse_evaluate,
    lebesgue_system,
    ratio_state,
    stationarity_check,
    validate,
    walk_system,
    walk_tree,
    word_matrix,
)
from derham_lft.cli import main
from helpers import random_valid_system

SCALES = tuple(2.0**e for e in (-300, -80, -70, -40, -36, -30, -10, 20, 40, 300))


def float_systems():
    """The float presets, the force_approx twins of exact presets and of
    random admissible pairs, and two presets whose float f is flat."""
    rng = random.Random(22)
    twins = [walk_system(1), walk_system(Fraction(3, 7)), lebesgue_system(Fraction(1, 3))]
    twins += [random_valid_system(rng, scaled=bool(i % 2)) for i in range(3)]
    floats = [walk_system(0.5), walk_system(1.5)]
    flat = [lebesgue_system(0.99), walk_system(0.1)]
    return floats + [force_approx(s) for s in twins] + flat


SYSTEMS = float_systems()


def scaled(system, k):
    return validate(system.A0.scaled(k), system.A1.scaled(k))


def bits_of(values) -> bytes:
    """The float64 bits of the values, compared as bytes."""
    return array("d", values).tobytes()


def outcome(call, *args):
    """The call's float result as float.hex, or its error type and message."""
    try:
        return float(call(*args)).hex()
    except Exception as exc:  # noqa: BLE001 - a raise is an outcome to compare
        return type(exc).__name__, str(exc)


def fingerprint(system) -> dict:
    """Every scale-free result of the system, as bits."""
    rng = random.Random(7)
    table = dyadic_value_table(system, 10)
    xs = [rng.random() for _ in range(8)] + [0.5, 1 / 3, 0.001, 1 - 2.0**-53]
    ys = [rng.random() for _ in range(8)] + [table[j] for j in (1, 300, 512, 1023)]
    points = {
        tol: (
            [outcome(evaluate, system, x, tol) for x in xs],
            [outcome(inverse_evaluate, system, y, tol) for y in ys],
        )
        # 1e-12 jumps the prefix of the top word-tree levels; 1e-6 runs the loop.
        for tol in (1e-12, 1e-6)
    }
    addresses = [(0,) * 20, (1,) * 20, (0, 1) * 12, tuple(rng.getrandbits(1) for _ in range(40))]
    addresses += [(0,) * 15, (1,) * 15]  # words 15 products past the last rescaling
    enclosures = [dyadic_enclosure(system, bits) for bits in addresses]
    report = stationarity_check(system, 8, 1e-11)
    verdict = classify(system)
    bounds = dimension_bounds(system)
    return {
        "constants": bits_of([system.alpha, system.beta, system.gamma]),
        "points": points,
        "tables": [bits_of(table), bits_of(dyadic_value_table(system, 18))],
        "enclosures": bits_of([e for pair in enclosures for e in pair]),
        "masses": bits_of([interval_measure(system, bits) for bits in addresses]),
        "states": bits_of([ratio_state(system, bits) for bits in addresses]),
        "tree": bits_of([v for node in walk_tree(system, 6) for v in (node.mass, node.state)]),
        "deep tree": bits_of(
            [v for node in itertools.islice(walk_tree(system, 20), 64) for v in (node.mass, node.state)]
        ),
        "stationary": bits_of([report.max_residual_recursion, report.max_residual_mass]),
        "doubling": outcome(doubling_map_change_of_measure, system, 2, 12),
        "entropy": [outcome(entropy_rate_estimate, system, n, 5) for n in (1000, 40_000)],
        "classify": (
            verdict.verdict, verdict.ac_condition_0, verdict.ac_condition_1, verdict.exactness,
            None if verdict.c0 is None else outcome(float, verdict.c0),
            None if verdict.defect_bound is None else outcome(float, verdict.defect_bound),
        ),
        "bounds": bits_of([
            bounds.entropy_max, bounds.entropy_min, bounds.dim_upper, bounds.dim_lower,
            bounds.argmax_location,
        ]),
    }


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_power_of_two_scaling_changes_no_bit(index):
    system = SYSTEMS[index]
    want = fingerprint(system)
    assert not any(type(o) is tuple for o in want["points"][1e-12][0])  # no PoleError
    for k in SCALES:
        other = scaled(system, k)
        got = fingerprint(other)
        assert other.word_basis._prefix.words  # the descents at 1e-12 jumped
        for key in want:
            assert got[key] == want[key], (k, key)


def test_evaluate_survives_a_shrinking_word_entry():
    # d shrinks by 0.01 per A0 factor, to 1e-16 in 8 factors, while c
    # stays about twice d**7: relative to the word's entries the
    # denominator is far from a pole, and the value meets tol against
    # the exact twin.
    a0, a1 = ("0.00505", "0", "1", "0.01"), ("0.995", "0.005", "0", "1")
    system = validate(MoebiusMatrix(*map(float, a0)), MoebiusMatrix(*map(float, a1)))
    twin = validate(MoebiusMatrix(*map(Fraction, a0)), MoebiusMatrix(*map(Fraction, a1)))
    for tol in (1e-6, 1e-12):
        got = evaluate(system, 0.001, tol)
        assert abs(Fraction(got) - evaluate(twin, Fraction(0.001), tol)) <= tol


def _run(capsys, tmp_path, argv, doc=None):
    if doc is not None:
        cfg = tmp_path / "system.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def _config(system, k):
    """The --config document of the system's float pair times k."""
    pair = {"A0": system.A0, "A1": system.A1}
    return {name: [repr(float(e) * k) for e in m.entries] for name, m in pair.items()}


def test_scaled_stationary_report_equals_the_unscaled(capsys, tmp_path):
    # walk:1's float pair times 2**-10, whose word denominators reach
    # 6.0e-16: a pole tolerance with an absolute floor of 1e-15 refuses it.
    # Times 2**-70, a 16-factor word underflows to the zero matrix unless
    # the basis scales the factors back into their exponent band.
    extra = ["--depth", "8", "--quad-depth", "12"]
    argv = ["stationary", "--preset", "walk:1", "--mode", "approx", *extra]
    _, want, _ = _run(capsys, tmp_path, argv)
    assert want.pop("mode") == "approx"
    assert want.pop("preset") == "walk:1"
    for k in (2.0**-10, 2.0**-70):
        code, got, err = _run(capsys, tmp_path, ["stationary", *extra], _config(walk_system(1), k))
        assert (code, err) == (0, ""), k
        assert got.pop("mode") == "approx"
        assert got == want, k


@pytest.mark.parametrize("k", [2.0**-14, 1e-4])
def test_scaled_classify_is_singular(capsys, tmp_path, k):
    # The digit-0 identity of walk:0.5 fails by far more than 1e-9 relative
    # to its entries, though by less than 1e-9 absolutely at this scale.
    code, got, err = _run(capsys, tmp_path, ["classify"], _config(walk_system(0.5), k))
    assert (code, err) == (0, "")
    assert got["verdict"] == "singular"
    assert not got["ac_condition_0"] and not got["ac_condition_1"]
    if k == 2.0**-14:
        _, want, _ = _run(capsys, tmp_path, ["classify", "--preset", "walk:0.5"])
        assert {**got, "preset": "walk:0.5"} == want


def test_b0_is_tested_relative_to_its_row():
    # walk:1's float pair times 1e-6, with b0 = 5e-10 and a0 lowered by as
    # much so that A0(1) = A1(0) still holds: A0(0) = 5e-4 at this scale,
    # and its value table starts at f(0) = 8.7e-4, not 0.
    a1 = MoebiusMatrix(0.0, 5e-7, -2.5e-7, 7.5e-7)
    with pytest.raises(ValidationError) as info:
        validate(MoebiusMatrix(4.995e-7, 5e-10, -2.5e-7, 1e-6), a1)
    assert info.value.violations == [("A1", "b0 = 5e-10 but b0 = 0 is required")]
    assert info.value.mode == "approx"
    # One part in 10**10 of the row is zero within A1_ATOL.
    assert validate(MoebiusMatrix(5e-7, 1e-16, -2.5e-7, 1e-6), a1).mode == "approx"


def test_far_word_matrix_is_the_unit_word_up_to_a_power_of_two():
    # The factors of a pair far from unit scale are scaled into their
    # exponent band, so its words are the unit-scale pair's words times one
    # power of two: before the first rescaling and after it (ratio 1).
    system = walk_system(0.5)
    for k in (2.0**-80, 2.0**300):
        other = scaled(system, k)
        for bits in ((0, 1) * 5, (1,) * 15, (0,) * 16, (1, 0) * 20):
            want, got = word_matrix(system, bits).entries, word_matrix(other, bits).entries
            assert [g == 0 for g in got] == [w == 0 for w in want]
            ratios = {g / w for g, w in zip(got, want) if w}
            assert len(ratios) == 1 and math.frexp(ratios.pop())[0] == 0.5, (k, bits)

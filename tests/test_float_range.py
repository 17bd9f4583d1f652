"""Exact entries beyond the float range, met where a pair becomes float."""

import json
from fractions import Fraction

import pytest

from derham_lft import MoebiusMatrix, ValidationError, force_approx, validate
from derham_lft.cli import main

BIG = 10**400
BIG_A0 = [str(BIG), "0", "0", str(2 * BIG)]
HALF_A1 = ["1/2", "1/2", "0", "1"]


def _run(capsys, tmp_path, command, a0, a1, *extra):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"A0": a0, "A1": a1}))
    code = main([command, "--config", str(cfg), *extra])
    out, err = capsys.readouterr()
    return code, out, err


def _assert_finite_violation(code, out, err):
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["valid"] is False
    assert [v["condition"] for v in doc["violations"]] == ["finite"]
    assert "float range" in doc["violations"][0]["detail"]


def test_exact_pair_is_valid(capsys, tmp_path):
    code, out, _ = _run(capsys, tmp_path, "validate", BIG_A0, HALF_A1)
    assert code == 0 and json.loads(out)["mode"] == "exact"


def test_cli_mode_approx(capsys, tmp_path):
    _assert_finite_violation(*_run(capsys, tmp_path, "validate", BIG_A0, HALF_A1, "--mode", "approx"))


def test_cli_mixed_pair(capsys, tmp_path):
    mixed_a1 = ["0.5", "0.5", "0", "1"]
    _assert_finite_violation(*_run(capsys, tmp_path, "validate", BIG_A0, mixed_a1))


def test_cli_other_command_exit_1(capsys, tmp_path):
    code, out, err = _run(capsys, tmp_path, "classify", BIG_A0, HALF_A1, "--mode", "approx")
    assert code == 1 and out == ""
    assert err.startswith("error: ValidationError: finite: ") and err.count("\n") == 1


def test_force_approx():
    system = validate(
        MoebiusMatrix(Fraction(BIG), 0, 0, Fraction(2 * BIG)),
        MoebiusMatrix(Fraction(1, 2), Fraction(1, 2), 0, 1),
    )
    with pytest.raises(ValidationError) as info:
        force_approx(system)
    assert info.value.conditions == {"finite"}

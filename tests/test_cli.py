import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from derham_lft import dyadic_value_table, force_approx, lebesgue_system, walk_system
from derham_lft import cli
from derham_lft.cli import main
from derham_lft.measure import _MAX_PURE_AFFINE_STEPS
from helpers import random_valid_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_preset_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--preset", "lebesgue:1/3")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] and doc["schema"] == 1
        assert (doc["alpha"], doc["beta"], doc["gamma"]) == ("0", "0", "3")
        assert doc["fixed_points"]["transposed_A1"] == ["-1", "0"]

    def test_walk_preset_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--preset", "walk:1")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact" and doc["gamma"] == "3/2"

    def test_invalid_system_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps({"schema": 1, "A0": ["1", "0", "0", "1"], "A1": ["1", "0", "0", "1"]})
        )
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"]
        assert any(v["condition"] == "A1" for v in doc["violations"])

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"A0": ["1", "0",\n  BROKEN')
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 2
        assert "line 2" in err and "column" in err

    def test_unknown_preset_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--preset", "unknown:1")
        assert code == 2
        assert "unknown" in err

    def test_walk_out_of_range_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--preset", "walk:6")
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"]
        assert any(v["condition"] == "A3" for v in doc["violations"])

    def test_refusal_keeps_preset_and_mode(self, capsys):
        # The refusal carries the meta keys of an accepted report.
        code, out, _ = run_cli(capsys, "validate", "--preset", "walk:6")
        assert code == 1
        doc = json.loads(out)
        assert (doc["preset"], doc["mode"], doc["valid"]) == ("walk:6", "exact", False)
        _, accepted, _ = run_cli(capsys, "validate", "--preset", "walk:1")
        assert set(json.loads(accepted)) - set(doc) == {
            "alpha", "beta", "gamma", "conditions", "fixed_points"
        }

    def test_float_refusal_keeps_label_and_mode(self, capsys, tmp_path):
        # walk:1's float pair scaled by 1e-6, with b0 = 5e-10 and a0 moved
        # to keep A0(1) = A1(0): A0(0) = 5e-4, far from 0 at this scale.
        cfg = tmp_path / "b0.json"
        cfg.write_text(json.dumps({
            "label": "walk:1 x 1e-6, b0 = 5e-10",
            "A0": ["4.995e-7", "5e-10", "-2.5e-7", "1e-6"],
            "A1": ["0", "5e-7", "-2.5e-7", "7.5e-7"],
        }))
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1
        doc = json.loads(out)
        assert (doc["label"], doc["mode"]) == ("walk:1 x 1e-6, b0 = 5e-10", "approx")
        assert doc["violations"] == [
            {"condition": "A1", "detail": "b0 = 5e-10 but b0 = 0 is required"}
        ]


class TestBadRationals:
    LONG = "1" * 5000  # past the int string conversion limit of 4300 digits

    @pytest.mark.parametrize(
        "entry",
        ["1/0", "0/0", LONG, f"1/{LONG}", "1e400"],
        ids=["1/0", "0/0", "long", "long-den", "1e400"],
    )
    def test_preset_and_config_exit_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "sys.json"
        matrices = {"A0": ["1", "0", "0", "1"], "A1": ["1", entry, "0", "1"]}
        cfg.write_text(json.dumps(dict(matrices, schema=1)))
        for source in (["--preset", f"walk:{entry}"], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, "validate", *source)
            assert code == 2, source
            assert out == ""
            assert err.startswith("error: scalar ") and err.count("\n") == 1, err
            assert len(err) < 120 and "Traceback" not in err

    def test_long_json_number_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(f'{{"A0": ["1", "0", "0", "1"], "A1": [1, {self.LONG}, 0, 1]}}')
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: config parse error: a number has too many digits\n"


IDENTITY = ["1", "0", "0", "1"]


class TestRefusals:
    # (argv, config written to a file and passed as --config, exit code,
    # the one stderr line); nothing goes to stdout.
    CASES = [
        pytest.param(["validate", "--preset", "walk:x"], None, 2,
                     "cannot parse scalar 'x'", id="unparseable"),
        pytest.param(["validate"], {"A0": ["1", "0", "1"], "A1": IDENTITY}, 2,
                     "A0 must be a list of four entry strings", id="three-entries"),
        pytest.param(["validate", "--preset", "walk:1"], {"preset": {"walk": "1"}}, 2,
                     "give exactly one of --preset and --config", id="preset-and-config"),
        pytest.param(["validate"], None, 2,
                     "one of --preset or --config is required", id="no-system"),
        pytest.param(["validate", "--preset", "walk"], None, 2,
                     "preset must look like name:param, e.g. lebesgue:1/3", id="no-colon"),
        pytest.param(["validate"], [1, 2], 2, "config must be a JSON object", id="not-object"),
        pytest.param(["validate"], {"preset": "walk:1"}, 2,
                     'preset must be an object like {"lebesgue": "1/3"}', id="preset-string"),
        pytest.param(["validate"], {"A0": IDENTITY}, 2,
                     "config needs both A0 and A1", id="only-A0"),
        pytest.param(["validate", "--preset", "lebesgue:3/2"], None, 1,
                     "DomainError: p = 3/2 outside (0, 1)", id="lebesgue:3/2"),
        pytest.param(["validate", "--preset", "walk:-1"], None, 1,
                     "DomainError: u = -1 must be positive", id="walk:-1"),
        pytest.param(["plot", "--preset", "walk:1", "--depth", "-1"], None, 1,
                     "DomainError: depth must be >= 0", id="plot-depth-1"),
        pytest.param(["sample", "--preset", "walk:1", "-n", "0"], None, 1,
                     "DomainError: n must be >= 1", id="sample-n0"),
    ]

    @pytest.mark.parametrize("argv, config, code, message", CASES)
    def test_exit_code_and_message(self, capsys, tmp_path, argv, config, code, message):
        if config is not None:
            cfg = tmp_path / "sys.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


class TestGrid:
    def test_identity_rows(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--preset", "lebesgue:1/2", "--depth", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,f_lower,f_upper"
        assert len(lines) == 10
        for line in lines[1:]:
            x, lo, hi = map(float, line.split(","))
            assert x == lo == hi
        with pytest.raises(SystemExit) as exc:  # the deleted "eval" alias
            main(["eval", "--preset", "lebesgue:1/2", "--depth", "3"])
        assert exc.value.code == 2

    def test_depth_zero(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--preset", "lebesgue:1/3", "--depth", "0")
        rows = out.strip().splitlines()[1:]
        assert rows == ["0.0,0.0,0.0", "1.0,1.0,1.0"]

    def test_walk1_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--preset", "walk:1", "--depth", "10")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            x, lo, hi = map(float, line.split(","))
            assert abs(lo - 2 * x / (x + 1)) < 1e-12
            assert hi == lo

    def test_monotone_columns(self, capsys):
        _, out, _ = run_cli(capsys, "plot", "--preset", "walk:0.5", "--depth", "6")
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert values == sorted(values)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "plot", "--preset", "lebesgue:1/2", "--depth", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,f_lower,f_upper")

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "plot",
            "--preset",
            "lebesgue:1/2",
            "--out",
            str(tmp_path / "nope" / "grid.csv"),
        )
        assert code == 3

    def test_depth_above_cap_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "plot", "--preset", "walk:1", "--mode", "approx", "--depth", "23"
        )
        assert code == 1
        assert out == ""
        assert err == "error: DomainError: depth = 23 exceeds the cap of 22\n"

    def test_exact_depth_above_both_caps_names_the_exact_cap(self, capsys):
        code, out, err = run_cli(capsys, "plot", "--preset", "walk:1", "--depth", "23")
        assert code == 1 and out == ""
        assert err.startswith("error: DomainError: depth = 23 exceeds 20, the cap for exact")
        assert "--mode approx" in err and err.count("\n") == 1

    def test_exact_depth_above_exact_cap_exit_1(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, err = run_cli(
            capsys, "plot", "--preset", "walk:1", "--depth", "21", "--out", str(target)
        )
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith("error: DomainError: depth = 21 exceeds 20, the cap for exact")
        assert "--mode approx" in err and err.count("\n") == 1


def _per_row_csv(values, depth):
    """The plot CSV as one f-string per row, three reprs per row."""
    n = 1 << depth
    lines = ["x,f_lower,f_upper"]
    for j, v in enumerate(values):
        x = j / n
        fv = float(v)
        lines.append(f"{x!r},{fv!r},{fv!r}")
    return "\n".join(lines) + "\n"


class TestGridBytes:
    SYSTEMS = {
        ("walk:1", "exact"): lambda: walk_system(1),
        ("lebesgue:1/3", "exact"): lambda: lebesgue_system(Fraction(1, 3)),
        ("walk:1", "approx"): lambda: force_approx(walk_system(1)),
        ("walk:0.5", "approx"): lambda: walk_system(0.5),
    }

    def test_depths_straddle_the_block(self):
        # 2^11 + 1 rows fit one block, 2^12 + 1 and 2^13 + 1 spill over.
        assert 2**11 + 1 < cli._CSV_BLOCK < 2**12 + 1

    def test_x_column_is_repr(self):
        # The decimal form up to depth 16 against repr, row by row, in
        # blocks of the CSV's size and of 7 rows.
        for depth in range(17):
            n = 1 << depth
            want = [repr(j / n) for j in range(n + 1)]
            for width in (cli._CSV_BLOCK, 7):
                got = []
                for start in range(0, n + 1, width):
                    got += cli._grid_xs(start, min(start + width, n + 1), depth)
                assert got == want, (depth, width)

    # Float presets once more with float64 array tables past depth 4: the
    # same bytes as the Python float tables they are checked against.
    CASES = [pytest.param(*key, None, id="-".join(key)) for key in SYSTEMS] + [
        pytest.param(*key, 4, id="-".join(key) + "-array") for key in SYSTEMS if key[1] == "approx"
    ]

    @pytest.mark.parametrize("preset, mode, array_levels", CASES)
    def test_streamed_csv_equals_per_row_render(
        self, capsys, tmp_path, monkeypatch, preset, mode, array_levels
    ):
        from derham_lft import _words

        system = self.SYSTEMS[preset, mode]()
        depths = (0, 1, 11, 12, 13, 16, 17)
        expects = [_per_row_csv(dyadic_value_table(system, depth), depth) for depth in depths]
        if array_levels is not None:
            monkeypatch.setattr(_words, "ARRAY_LEVELS", array_levels)
            assert type(system.word_basis.table(5)) is _words._Array
        for depth, expect in zip(depths, expects):
            argv = ("plot", "--preset", preset, "--mode", mode, "--depth", str(depth))
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "") and out == expect, depth
            target = tmp_path / f"grid{depth}.csv"
            code, out, err = run_cli(capsys, *argv, "--out", str(target))
            assert (code, out, err) == (0, "", "")
            assert target.read_bytes() == expect.encode(), depth


class TestClassify:
    def test_singular_preset(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--preset", "lebesgue:1/3")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "singular"
        assert doc["exactness"] == "exact"
        assert abs(doc["dim_upper"] - 0.9183) < 1e-4
        assert doc["defect_bound"] is not None

    def test_ac_preset(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--preset", "walk:1")
        doc = json.loads(out)
        assert doc["verdict"] == "absolutely_continuous"
        assert doc["c0"] == "-1/4"

    def test_float_ac_warns(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--preset", "walk:1", "--mode", "approx"
        )
        doc = json.loads(out)
        assert doc["exactness"] == "approx"
        assert "not certifiable" in err

    def test_exact_input_never_flagged_approx(self, capsys):
        for preset in ("lebesgue:1/3", "lebesgue:1/2", "walk:1"):
            _, out, _ = run_cli(capsys, "classify", "--preset", preset)
            assert json.loads(out)["exactness"] == "exact"

    def test_mode_exact_rejected_for_floats(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--preset", "walk:0.5", "--mode", "exact"
        )
        assert code == 2


class TestConfigFiles:
    def test_matrix_config_exact(self, capsys, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "label": "third",
                    "A0": ["1/3", "0", "0", "1"],
                    "A1": ["2/3", "1/3", "0", "1"],
                }
            )
        )
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
        doc = json.loads(out)
        assert code == 0 and doc["mode"] == "exact" and doc["label"] == "third"

    def test_decimal_entries_force_approx(self, capsys, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(
            json.dumps(
                {
                    "A0": ["0.333333333333", "0", "0", "1"],
                    "A1": ["0.666666666667", "0.333333333333", "0", "1"],
                }
            )
        )
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
        doc = json.loads(out)
        assert doc["mode"] == "approx" and doc["exactness"] == "approx"

    def test_mixed_config_matches_all_decimal(self, capsys, tmp_path):
        # A0 written as rationals, A1 as decimals: the whole system runs in
        # floats, so every report equals that of the all-decimal twin.
        def decimals(m):
            return [repr(float(e)) for e in m.entries]

        commands = (
            ["validate"],
            ["classify"],
            ["dimension"],
            ["sample", "-n", "2000"],
            ["stationary", "--depth", "5", "--quad-depth", "9"],
        )
        for seed in range(3):
            system = random_valid_system(random.Random(seed), scaled=bool(seed % 2))
            mixed = tmp_path / f"mixed{seed}.json"
            twin = tmp_path / f"decimal{seed}.json"
            mixed.write_text(json.dumps({"A0": [str(e) for e in system.A0.entries],
                                         "A1": decimals(system.A1)}))
            twin.write_text(json.dumps({"A0": decimals(system.A0), "A1": decimals(system.A1)}))
            for command in commands:
                got = run_cli(capsys, *command, "--config", str(mixed))
                want = run_cli(capsys, *command, "--config", str(twin))
                assert got[0] == 0 and got == want, (seed, command)

    def test_preset_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps({"preset": {"walk": "1"}}))
        code, out, _ = run_cli(capsys, "dimension", "--config", str(cfg))
        assert code == 0

    def test_both_preset_and_matrices_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(
            json.dumps({"preset": {"walk": "1"}, "A0": ["1", "0", "0", "1"], "A1": ["1", "0", "0", "1"]})
        )
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "schema, code", [((), 0), ((1,), 0), ((2,), 2), (("1",), 2), ((1.5,), 2)]
    )
    def test_schema_other_than_1_refused(self, capsys, tmp_path, schema, code):
        # A config may leave "schema" out; given, it must be the integer 1.
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps({"preset": {"walk": "1"}, **dict(zip(["schema"], schema))}))
        got, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert got == code
        if code:
            shown = repr(json.dumps(schema[0]))
            assert out == ""
            assert err == f'error: config "schema" must be 1, got {shown}\n'
        else:
            assert json.loads(out)["schema"] == 1

    def test_missing_config_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--config", "/does/not/exist.json")
        assert code == 3


class TestDimension:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "dimension", "--preset", "walk:0.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["dim_lower"] <= doc["dim_upper"] <= 1.0
        assert doc["entropy_min_nats"] <= doc["entropy_max_nats"]


class TestSample:
    def test_deterministic_bytes(self):
        cmd = [
            sys.executable,
            "-m",
            "derham_lft.cli",
            "sample",
            "--preset",
            "lebesgue:1/4",
            "-n",
            "100000",
            "--seed",
            "7",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_seed_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--preset", "lebesgue:1/4", "-n", "2000", "--seed", "7"
        )
        doc = json.loads(out)
        assert doc["seed"] == 7 and doc["steps"] == 2000
        assert abs(doc["digit0_frequency"] - 0.25) < 0.05

    def test_default_seed_printed(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--preset", "lebesgue:1/2", "-n", "100")
        assert json.loads(out)["seed"] == 99991

    def test_seed_zero_is_not_the_default(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--preset", "lebesgue:1/2", "-n", "100", "--seed", "0")
        assert json.loads(out)["seed"] == 0

    def test_negative_seed_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--preset", "lebesgue:1/3", "-n", "10", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err == "error: DomainError: seed must be >= 0\n"

    def test_exact_growing_states_default_n_refused(self, capsys, monkeypatch):
        from derham_lft import measure

        def no_draw(*args):
            raise AssertionError("drew uniforms for a refused path")

        # Both streams: numpy's and the pure one of exact non-affine paths.
        monkeypatch.setattr(measure, "_uniforms", no_draw)
        monkeypatch.setattr(measure, "_philox_uniforms", no_draw)
        code, out, err = run_cli(capsys, "sample", "--preset", "walk:1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError: n = 100000 exceeds 20000")
        assert "--mode approx" in err and err.count("\n") == 1

    def test_path_drawn_once(self, capsys, monkeypatch):
        from derham_lft import measure

        calls = []
        draw, pure, count = measure._uniforms, measure._philox_uniforms, measure._philox_count_below

        def counted(seed, start, out):
            calls.append(("numpy", seed, start, len(out)))
            return draw(seed, start, out)

        def counted_pure(seed, n):
            calls.append(("pure", seed, 0, n))
            return pure(seed, n)

        def counted_count(seed, n, p0):
            calls.append(("count", seed, 0, n))
            return count(seed, n, p0)

        # An exact non-affine path draws from the pure stream, an exact
        # affine one counts on it, and a float path draws from numpy's;
        # each draws its uniforms once.
        monkeypatch.setattr(measure, "_uniforms", counted)
        monkeypatch.setattr(measure, "_philox_uniforms", counted_pure)
        monkeypatch.setattr(measure, "_philox_count_below", counted_count)
        for preset, mode, stream in (
            ("walk:1", "exact", "pure"),
            ("walk:1", "approx", "numpy"),
            ("lebesgue:1/4", "exact", "count"),
            ("lebesgue:1/4", "approx", "numpy"),
        ):
            calls.clear()
            code, _, _ = run_cli(
                capsys, "sample", "--preset", preset, "--mode", mode, "-n", "500"
            )
            assert code == 0
            assert calls == [(stream, 99991, 0, 500)], (preset, mode)


class TestStationaryCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--depth", "6", "--tol", "1e-11"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["max_residual_mass"] == 0.0
        assert doc["verdict_transfer"] is True

    def test_with_quadrature(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stationary",
            "--preset",
            "lebesgue:1/3",
            "--depth",
            "4",
            "--quad-depth",
            "10",
            "--shift-depth",
            "3",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["doubling_residual"] == 0.0

    def test_non_finite_tol_exit_2(self, capsys):
        for tol, mode in (("nan", "exact"), ("inf", "approx"), ("-inf", "approx")):
            code, out, err = run_cli(
                capsys, "stationary", "--preset", "walk:1", "--depth", "6",
                f"--tol={tol}", "--mode", mode,
            )
            assert code == 2, tol
            assert out == ""
            assert err == f"error: tol {float(tol)!r} is not finite\n"

    def test_quad_depth_above_cap_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--depth", "2", "--quad-depth", "30"
        )
        assert code == 1
        assert out == ""
        assert err == "error: DomainError: quad_depth = 30 exceeds the cap of 22\n"

    def test_caps_refused_before_sweeping(self, capsys, monkeypatch):
        from derham_lft._words import WordBasis

        def no_sweep(*args):
            raise AssertionError("swept a table")

        # The depth refusal lives inside the real dyadic_value_table.
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        code, out, err = run_cli(capsys, "stationary", "--preset", "walk:1", "--quad-depth", "15")
        assert (code, out) == (1, "")
        assert err.startswith("error: DomainError: quad_depth = 15 exceeds 14, ")
        assert "--mode approx" in err
        # An accepted quad depth is not swept before a refused depth.
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--depth", "21", "--quad-depth", "14"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: DomainError: depth = 21 exceeds 20, ")

    def test_affine_quad_depth_and_float_tol_refused_before_sweeping(self, capsys, monkeypatch):
        from derham_lft import stationary
        from derham_lft._words import WordBasis

        def no_sweep(*args):
            raise AssertionError("swept a table")

        monkeypatch.setattr(stationary, "dyadic_value_table", no_sweep)
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "lebesgue:1/3", "--quad-depth", "23"
        )
        assert (code, out) == (1, "")
        assert err == "error: DomainError: quad_depth = 23 exceeds the cap of 22\n"
        for argv in (("--preset", "walk:0.5"), ("--preset", "walk:1", "--mode", "approx")):
            code, out, err = run_cli(capsys, "stationary", *argv, "--tol", "0")
            assert (code, out) == (1, "")
            assert err.startswith("error: DomainError: tol = 0.0 is below 2**-53, ")
            assert "--tol" in err

    def test_exact_affine_quadrature_at_quad_depth_22(self, capsys):
        # The closed form sweeps no cells, so the deepest quad depth runs.
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "lebesgue:1/3",
            "--depth", "1", "--shift-depth", "1", "--quad-depth", "22",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["quad_depth"], doc["doubling_residual"]) == (22, 0.0)

    def test_exact_quad_depth_cap_follows_entry_bits(self, capsys, tmp_path, monkeypatch):
        from derham_lft import stationary
        from derham_lft._words import WordBasis

        def no_sweep(*args):
            raise AssertionError("swept a table")

        # A pair with 18-bit integer entries: quad depth 11 is its cap.
        system = random_valid_system(random.Random(5))
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"A0": [str(e) for e in system.A0.entries],
                                      "A1": [str(e) for e in system.A1.entries]}))
        monkeypatch.setattr(stationary, "dyadic_value_table", no_sweep)
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        code, out, err = run_cli(
            capsys, "stationary", "--config", str(config),
            "--shift-depth", "1", "--quad-depth", "12",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: DomainError: quad_depth = 12 exceeds 11, ")
        assert "18-bit entries" in err and "--mode approx" in err

    def test_exact_depth_above_cap_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "stationary", "--preset", "walk:1", "--depth", "21")
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError: depth = 21 exceeds 20, the cap for exact tables ")
        assert "--mode approx" in err

    def test_shift_depth_without_quad_depth_exit_2(self, capsys, monkeypatch):
        from derham_lft._words import WordBasis

        def no_sweep(*args):
            raise AssertionError("swept a table")

        code, out, _ = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--depth", "2", "--quad-depth", "6"
        )
        assert (code, json.loads(out)["shift_depth"]) == (0, 4)  # the default with --quad-depth
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        for shift in ("-3", "2", "4"):
            code, out, err = run_cli(
                capsys, "stationary", "--preset", "walk:1", "--depth", "2", "--shift-depth", shift
            )
            assert (code, out) == (2, "")
            assert err == "error: --shift-depth is read only with --quad-depth\n"

    def test_quad_depth_at_most_shift_depth_names_shift_depth(self, capsys):
        # --depth 8 is the stationarity depth; the quadrature compares
        # --quad-depth with the default --shift-depth of 4.
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--depth", "8", "--quad-depth", "3"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: DomainError: quad_depth = 3 must exceed the shift depth = 4 (--shift-depth)\n"
        )

    def test_shift_depth_below_1_names_shift_depth(self, capsys):
        code, out, err = run_cli(
            capsys, "stationary", "--preset", "walk:1", "--quad-depth", "5", "--shift-depth", "0"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: DomainError: shift depth = 0 (--shift-depth) must be >= 1 "
            "and below quad_depth = 5\n"
        )


class TestImports:
    def test_commands_without_float_work_skip_numpy(self):
        # One fresh interpreter runs every command in turn and reports,
        # after each, whether numpy has been imported so far.  Approx
        # stationary maps its quadrature's table in Python floats.
        code = (
            "import contextlib, io, sys\n"
            "from derham_lft.cli import main\n"
            "for argv in (\n"
            "    ['validate', '--preset', 'walk:1'],\n"
            "    ['classify', '--preset', 'lebesgue:1/3'],\n"
            "    ['dimension', '--preset', 'walk:1'],\n"
            "    ['plot', '--preset', 'walk:1', '--depth', '6'],\n"
            "    ['stationary', '--preset', 'walk:1', '--depth', '4', '--quad-depth', '6'],\n"
            "    ['stationary', '--preset', 'walk:1', '--mode', 'approx', '--quad-depth', '14'],\n"
            "):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(argv[0], 'numpy' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout.split("\n") == [
            "validate False",
            "classify False",
            "dimension False",
            "plot False",
            "stationary False",
            "stationary False",
            "",
        ]

    def test_plot_skips_numpy_in_both_modes(self):
        code = (
            "import contextlib, io, sys\n"
            "from derham_lft.cli import main\n"
            "for argv in (\n"
            "    ['plot', '--preset', 'walk:1', '--depth', '6', '--mode', 'approx'],\n"
            "    ['plot', '--preset', 'walk:0.5', '--depth', '17'],\n"
            "):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout == "False\n"

    def test_approx_quadrature_imports_numpy_past_array_levels(self):
        # The quadrature's table has 2**(quad_depth + 1) values: a float64
        # array past 2**ARRAY_LEVELS = 2**17, Python floats up to it.
        code = (
            "import contextlib, io, sys\n"
            "from derham_lft.cli import main\n"
            "for quad in ('16', '17'):\n"
            "    argv = ['stationary', '--preset', 'walk:0.5', '--depth', '2', '--quad-depth', quad]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(quad, 'numpy' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout == "16 False\n17 True\n"

    @pytest.mark.parametrize(
        "argv, numpy",
        [
            # Exact non-affine reports, and exact affine ones up to the
            # switch, draw their uniforms from the pure Philox stream; longer
            # affine and all float paths draw them with numpy.
            (["sample", "--preset", "walk:1", "-n", "100"], False),
            (["sample", "--preset", "lebesgue:1/4", "-n", str(_MAX_PURE_AFFINE_STEPS + 1)], True),
            (["sample", "--preset", "walk:0.5", "-n", "100"], True),
            (["sample", "--preset", "walk:1", "--mode", "approx", "-n", "100"], True),
            (["sample", "--preset", "lebesgue:1/4", "-n", "100"], False),
            (["sample", "--preset", "lebesgue:1/4", "-n", str(_MAX_PURE_AFFINE_STEPS)], False),
            (["sample", "--preset", "lebesgue:1/3", "--mode", "approx", "-n", "100"], True),
        ],
    )
    def test_only_exact_non_affine_sample_skips_numpy(self, argv, numpy):
        code = (
            "import contextlib, io, sys\n"
            "from derham_lft.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout == f"{numpy}\n"

    # The derham_lft submodules each command leaves in sys.modules.
    COMMON = {"cli", "errors", "numerics", "system", "presets"}
    WORDS = COMMON | {"_words"}
    GRAPH = (
        (["--version"], {"cli", "errors"}),
        (["validate", "--preset", "walk:1"], COMMON),
        (["classify", "--preset", "lebesgue:1/3"], COMMON | {"analysis"}),
        # The absolutely continuous branch reads c0 off the normal form, which
        # forms no word.
        (["classify", "--preset", "walk:1"], COMMON | {"analysis", "solution"}),
        (["dimension", "--preset", "walk:1"], COMMON | {"analysis"}),
        (["plot", "--preset", "walk:1", "--depth", "6"], WORDS | {"solution"}),
        (["plot", "--preset", "walk:1", "--depth", "6", "--mode", "approx"], WORDS | {"solution"}),
        (
            ["stationary", "--preset", "walk:1", "--depth", "4", "--quad-depth", "6"],
            WORDS | {"solution", "stationary"},
        ),
        # Only float paths that are not affine run, and import, the lanes;
        # exact paths step the coprime integer matrices, with no word basis.
        (["sample", "--preset", "lebesgue:1/4", "-n", "100"], COMMON | {"measure"}),
        (["sample", "--preset", "walk:0.5", "-n", "100"], COMMON | {"measure", "_kernels"}),
        (["sample", "--preset", "walk:1", "-n", "100"], COMMON | {"measure"}),
    )

    @pytest.mark.parametrize("argv, modules", GRAPH, ids=[" ".join(a) for a, _ in GRAPH])
    def test_each_command_imports_only_what_it_runs(self, argv, modules):
        code = (
            "import contextlib, io, sys\n"
            "from derham_lft.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        assert main({argv!r}) == 0\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('derham_lft.'))))\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert set(run.stdout.split()) == {f"derham_lft.{m}" for m in modules}

    NO_INSPECT = (
        ["--version"],
        ["validate", "--preset", "walk:1"],
        ["classify", "--preset", "lebesgue:1/3"],
        # The absolutely continuous branch builds its report with c0.
        ["classify", "--preset", "walk:1"],
        ["dimension", "--preset", "walk:1"],
        ["plot", "--preset", "walk:1", "--depth", "6"],
        ["stationary", "--preset", "walk:1", "--depth", "4", "--quad-depth", "6"],
    )

    @pytest.mark.parametrize("argv", NO_INSPECT, ids=[" ".join(a) for a in NO_INSPECT])
    def test_exact_commands_skip_dataclasses_and_inspect(self, argv):
        # Diffed against the modules loaded before the package, so that a
        # site hook that preloads either module cannot fail the test.
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from derham_lft.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        assert main({argv!r}) == 0\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0\n"
            "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout.split() == []


class TestRoundTrip:
    def test_json_reemission_idempotent(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "--preset", "walk:1")
        reparsed = json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
        assert reparsed == first

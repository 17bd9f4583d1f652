"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("numerics.mat_mul.calls", "numerics.apply_mobius.calls",
          "numerics.renormalize.calls", "measure.sample_path.calls")


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_smoke(workload):
    res = result(run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert res["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_and_counts_repeat(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracles_reject_wrong_outputs():
    import derham_lft as dl

    def failing(check, out):
        with pytest.raises(workloads.CheckFailed):
            check(out)

    grid = {r.name: r for r in workloads.grid_requests(workloads.SIZES[True])}
    depth = workloads.SIZES[True]["walk_depth"]
    n = 1 << depth
    values = [float(v) for v in workloads.walk1_values(depth)]
    rows = [f"{j / n!r},{v!r},{v!r}" for j, v in enumerate(values)]
    good = "\n".join(["x,f_lower,f_upper", *rows]) + "\n"
    grid["plot walk:1 exact"].check(good)
    off = values[5] + 1e-9
    failing(grid["plot walk:1 exact"].check, good.replace(rows[5], f"{5 / n!r},{off!r},{off!r}"))

    query = {r.name: r for r in workloads.build(dl, "query", 1, small=True).requests}
    failing(query["evaluate exact #0"].check, "1/3")
    failing(query["interval_measure #0"].check, "1/2")
    evaluate = query["evaluate approx #0"]
    x = float(evaluate.payload[2])
    right = dl.evaluate(dl.walk_system(0.5), x, 1e-14)
    evaluate.check(repr(right))
    failing(evaluate.check, repr(right + 1e-9))

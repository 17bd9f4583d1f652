#!/usr/bin/env python3
"""Benchmark of derham_lft, end to end and layer by layer.

    python3 perfbench/run.py --workload grid|sample|query --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it measures the checkout's own
``src/`` (PYTHONPATH is set to it, nothing is installed).  One client
sends one request at a time and waits for the reply (a closed loop).

--trace 0 times the workload's request list, repeated until S seconds
have passed, and reports the end-to-end metrics: CLI requests each run
in a fresh process, library calls in one warm worker process.
--trace 1 replays the same requests in this process, alternating a plain
replay with a traced one (their ratio is the tracing overhead), then
makes one counting pass, and reports the per-layer metrics (see
tracing.py).  Times are in reference seconds (see pace.py).

Every output is checked against an oracle (see workloads.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import pace  # noqa: E402
import query  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 9

#: `grid` and `sample` run the point-query probe for about this long
#: (or --seconds, if shorter).
PROBE_SECONDS = 10

#: Every child process must finish within this many seconds.
CHILD_TIMEOUT = 170

LATENCY_KINDS = ("eval_exact", "eval_approx", "inverse_exact", "inverse_approx")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Tally:
    """Attempted and failed requests; a request fails on a non-zero exit,
    an exception, or an oracle mismatch."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, request, output, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                request.check(output)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{request.name}: {error}")


def run_child(*args: str) -> tuple:
    """Run perfbench/child.py; (start, end, returncode, stdout, stderr, Speed)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    end = time.perf_counter()
    stderr, tag, samples = proc.stderr.rpartition(child.PACE_TAG)
    speed = pace.Speed(json.loads(samples) if tag else [])
    return start, end, proc.returncode, proc.stdout, stderr, speed


def run_cli(argv) -> tuple:
    """(reference seconds, raw seconds, output or None, error or None) of
    one CLI invocation in a fresh process."""
    start, end, code, out, err, speed = run_child("cli", *argv)
    error = None if code == 0 else f"exit {code}: {err.strip()[-300:]}"
    return speed.scaled(start, end), end - start, out if code == 0 else None, error


def import_times() -> tuple:
    """Reference seconds of `import numpy` and of `import derham_lft.cli`."""
    _, _, code, out, err, speed = run_child("imports")
    if code != 0:
        raise RuntimeError(f"import timing failed: {err.strip()[-500:]}")
    t0, t1, t2 = map(float, out.split())
    return speed.scaled(t0, t1), speed.scaled(t1, t2)


def run_worker(calls: list, seconds: float) -> tuple:
    """(set-up reference seconds, passes, Speed) of one query worker;
    set-up is the time from spawning it to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "query"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child_env(), cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        job = json.dumps({"calls": calls, "seconds": seconds})
        out, err = proc.communicate(job, timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    err, tag, samples = err.rpartition(child.PACE_TAG)
    if ready.strip() != "ready" or proc.returncode != 0 or not tag:
        raise RuntimeError(f"query worker failed (exit {proc.returncode}): {err.strip()[-500:]}")
    speed = pace.Speed(json.loads(samples))
    return speed.scaled(start, ready_at), query.expand(json.loads(out)), speed


def tail_percentile(values: list, q: float = 0.99) -> tuple:
    """(value, quantile used): the q-quantile by nearest rank, or the
    highest quantile that leaves at least ten samples above it."""
    n = len(values)
    q = max(0.5, min(q, 1 - 10 / n))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)], q


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest of any waited-for child.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def check_passes(requests, passes, speed, tally, times) -> None:
    """Check every call result and file its reference seconds."""
    for results in passes:
        for request, (out, start, end, error) in zip(requests, results):
            tally.record(request, out, error)
            times[request.name].append(speed.scaled(start, end))


def timed_run(wl, seconds: float) -> tuple:
    """End-to-end metrics with tracing off."""
    tally = Tally()
    times: dict = defaultdict(list)
    raw: dict = defaultdict(list)
    if wl.cli:
        run_cli(["--version"])  # warm-up: compiles the .pyc files
        setup = [run_cli(["--version"])[0] for _ in range(SETUP_REPEATS)]
        begin, passes = time.perf_counter(), 0
        while True:
            for request in wl.requests:
                scaled, elapsed, out, error = run_cli(request.payload)
                tally.record(request, out, error)
                times[request.name].append(scaled)
                raw[request.name].append(elapsed)
            passes += 1
            if not pace.another_pass(begin, passes, seconds):
                break
        peak = peak_rss_mb()
        probe_seconds = min(PROBE_SECONDS, seconds)
        _, probe_passes, speed = run_worker([r.payload for r in wl.probe], probe_seconds)
        check_passes(wl.probe, probe_passes, speed, tally, times)
        points = wl.probe
    else:
        run_worker([], 0)  # warm-up: compiles the .pyc files
        setup = [run_worker([], 0)[0] for _ in range(SETUP_REPEATS)]
        _, query_passes, speed = run_worker([r.payload for r in wl.requests], seconds)
        check_passes(wl.requests, query_passes, speed, tally, times)
        for results in query_passes:
            for request, (_, start, end, _) in zip(wl.requests, results):
                raw[request.name].append(end - start)
        peak = peak_rss_mb()
        points = wl.requests

    def wall(per_request: dict, mode=None) -> float:
        # Each request's median over the passes, summed over the list.
        return sum(
            statistics.median(per_request[r.name]) for r in wl.requests
            if mode in (None, r.mode)
        )

    metrics = {
        "wall_s": (wall(times), "s"),
        "exact_wall_s": (wall(times, "exact"), "s"),
        "approx_wall_s": (wall(times, "approx"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": (1 - tally.failed / tally.attempted, "frac"),
    }
    details = {"passes": len(raw[wl.requests[0].name]), "raw_wall_s": wall(raw),
               "tail_quantile": {}}
    for kind in LATENCY_KINDS:
        # One sample per point: its median latency over the passes.
        values = [statistics.median(times[r.name]) * 1e3 for r in points if r.kind == kind]
        op, mode = kind.split("_")
        p99, q = tail_percentile(values)
        metrics[f"{op}_{mode}_p50_ms"] = (statistics.median(values), "ms")
        metrics[f"{op}_{mode}_p99_ms"] = (p99, "ms")
        details["tail_quantile"][kind] = {"samples": len(values), "quantile": q}
    return metrics, tally, details


def call_cli(cli, argv) -> tuple:
    """(output or None, error or None) of cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return None, f"exit {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), None


def replay(dl, wl, tally: Tally) -> list:
    """Run the request list once in this process and check it; returns
    the (start, end) clock readings of the requests."""
    clock = time.perf_counter
    intervals = []
    if wl.cli:
        for request in wl.requests:
            start = clock()
            out, error = call_cli(dl.cli, request.payload)
            intervals.append((start, clock()))
            tally.record(request, out, error)
        return intervals
    start = clock()
    systems = query.build_systems(dl)
    intervals.append((start, clock()))
    results = query.run_pass(dl, systems, [r.payload for r in wl.requests])
    intervals += [(begin, end) for _, begin, end, _ in results]
    for request, (out, _, _, error) in zip(wl.requests, results):
        tally.record(request, out, error)
    return intervals


def traced_run(dl, wl, seconds: float) -> tuple:
    """Per-layer metrics: pairs of plain and traced in-process replays
    until `seconds` have passed, then one counting replay."""
    tally = Tally()
    import_times()  # warm-up: compiles the .pyc files
    imports = [import_times() for _ in range(SETUP_REPEATS)]
    pairs, tracers = [], []
    pace.start()
    begin = time.perf_counter()
    while True:
        plain = replay(dl, wl, tally)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = replay(dl, wl, tally)
        pairs.append((plain, traced))
        tracers.append(tracer)
        if not pace.another_pass(begin, len(pairs), seconds):
            break
    speed = pace.Speed(pace.stop())
    counter = tracing.Counter()
    with counter.installed():
        replay(dl, wl, tally)

    def total(intervals) -> float:
        return sum(speed.scaled(a, b) for a, b in intervals)

    layer_runs = [tracer.layer_metrics(speed) for tracer in tracers]
    metrics = {
        "import.numpy_s": (statistics.median(t[0] for t in imports), "s"),
        "import.derham_lft_s": (statistics.median(t[1] for t in imports), "s"),
    }
    for name in layer_runs[0]:
        if name.endswith(".calls"):
            metrics[name] = (layer_runs[0][name], "count")
        else:
            unit = "ns" if "_ns_per_" in name else "s"
            metrics[name] = (statistics.median(run[name] for run in layer_runs), unit)
    for name, count in counter.counts.items():
        metrics[name] = (count, "count")
    overheads = [total(traced) / total(plain) - 1 for plain, traced in pairs]
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "frac")
    details = {"replay_pairs": len(pairs), "spans": [t.spans for t in tracers]}
    return metrics, tally, details


def machine_facts(dl) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    using_numba = getattr(dl._kernels, "using_numba", lambda: False)()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel": "numba" if using_numba else "python",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "derham_lft" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no derham_lft sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import derham_lft as dl
    import derham_lft.cli  # noqa: F401  (the traced replay calls dl.cli.main)

    facts = machine_facts(dl)
    wl = workloads.build(dl, args.workload, args.seed, small=args.small)
    if args.trace:
        metrics, tally, details = traced_run(dl, wl, args.seconds)
    else:
        metrics, tally, details = timed_run(wl, args.seconds)

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "facts": facts, "errors": tally.errors,
                   "metrics": metrics, **details}, fh)

    print(f"facts: {json.dumps(facts)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<58} {tally.failed / tally.attempted:>14.6g} frac")
    for error in tally.errors:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Library calls of the `query` workload, run in one warm process.

`serve` is the query worker (run as ``child.py query``): it imports
derham_lft, builds the systems, prints ``ready``, reads a job from stdin
and writes the results as one JSON line to stdout.  The job is ``{"calls": [...], "seconds": s}``; the worker
repeats the call list until `s` seconds have passed (at least once).
Each call is ``[op, system, arg, tol]`` with every argument encoded as a
string.  So that the worker's memory does not grow with the number of
passes, it keeps the first pass's ``[output, error]`` pairs, only the
later results that differ from them, and the perf_counter readings
around each call in flat arrays; `expand` rebuilds the passes.

The traced run imports this module and calls `run_pass` in process.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

import pace

#: Systems the calls refer to, by CLI preset name.
SYSTEM_NAMES = ("walk:1", "walk:0.5", "lebesgue:1/3")


def build_systems(dl) -> dict:
    return {
        "walk:1": dl.walk_system(1),
        "walk:0.5": dl.walk_system(0.5),
        "lebesgue:1/3": dl.lebesgue_system(Fraction(1, 3)),
    }


def _scalar(system, text: str):
    return Fraction(text) if system.exact else float(text)


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_call(dl, systems: dict, call: list) -> str:
    op, name, arg, tol = call
    system = systems[name]
    if op == "evaluate":
        return _text(dl.evaluate(system, _scalar(system, arg), float(tol)))
    if op == "inverse_evaluate":
        return _text(dl.inverse_evaluate(system, _scalar(system, arg), float(tol)))
    if op == "interval_measure":
        return _text(dl.interval_measure(system, tuple(int(b) for b in arg)))
    if op == "ratio_state":
        return _text(dl.ratio_state(system, tuple(int(b) for b in arg)))
    if op == "walk_tree":
        nodes = dl.walk_tree(system, int(arg))
        return json.dumps(
            [["".join(map(str, n.bits)), _text(n.mass), _text(n.state)] for n in nodes]
        )
    raise ValueError(f"unknown op {op!r}")


def run_pass(dl, systems: dict, calls: list) -> list:
    """One pass over the calls: [output or None, start, end, error or None] each."""
    results = []
    clock = time.perf_counter
    for call in calls:
        start = clock()
        try:
            out, err = run_call(dl, systems, call), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append([out, start, clock(), err])
    return results


def serve() -> None:
    import derham_lft as dl

    systems = build_systems(dl)
    print("ready", flush=True)
    with pace.paused():
        job = json.loads(sys.stdin.read() or "{}")
    calls = job.get("calls", [])
    first: list = []
    changed: list = []  # [pass, call, output, error] where a pass differs from the first
    starts, ends = array("d"), array("d")
    passes = 0
    begin = time.perf_counter()
    while calls:
        for i, (out, start, end, err) in enumerate(run_pass(dl, systems, calls)):
            if not passes:
                first.append([out, err])
            elif [out, err] != first[i]:
                changed.append([passes, i, out, err])
            starts.append(start)
            ends.append(end)
        passes += 1
        if not pace.another_pass(begin, passes, job.get("seconds", 0)):
            break
    doc = {"first": first, "changed": changed, "starts": starts.tolist(), "ends": ends.tolist()}
    print(json.dumps(doc))


def expand(doc: dict) -> list:
    """The passes of a worker's output, as run_pass results."""
    n = len(doc["first"])
    passes = [
        [[out, doc["starts"][k * n + i], doc["ends"][k * n + i], err]
         for i, (out, err) in enumerate(doc["first"])]
        for k in range(len(doc["starts"]) // n if n else 0)
    ]
    for k, i, out, err in doc["changed"]:
        passes[k][i][0], passes[k][i][3] = out, err
    return passes


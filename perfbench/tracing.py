"""Spans and call counts recorded from outside the package.

The benchmark wraps public functions of derham_lft at every module
binding the package calls them through (module globals, and dicts such
as the CLI dispatch table), so nothing inside ``src/`` is instrumented.
Spans stay in memory; the run writes them out when it ends.

A span's self time is its duration minus the time its child spans
cover.  Durations are in reference seconds (see pace.py).  Per-layer `<layer>_s` metrics are self times; `*_ns_per_*`
metrics divide a layer's inclusive time by the cells or steps its calls
asked for, split by the system's mode.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """A wrapped function: module, attribute, span name, and optionally
    the work units (cells or steps) of one call and their metric name."""

    module: str
    attr: str
    span: str
    units: Optional[Callable[[dict], int]] = None
    per: str = ""
    iterates: bool = False  # returns an iterator; the span lasts until it is exhausted


LAYERS = (
    Layer("cli", "load_system", "cli.load_system"),
    Layer("system", "validate", "system.validate"),
    Layer("analysis", "classify", "analysis.classify"),
    Layer("analysis", "dimension_bounds", "analysis.dimension_bounds"),
    Layer("solution", "dyadic_value_table", "solution.dyadic_value_table",
          lambda a: 2 ** a["depth"] + 1, "cell"),
    Layer("solution", "evaluate", "solution.evaluate"),
    Layer("solution", "inverse_evaluate", "solution.inverse_evaluate"),
    Layer("solution", "word_matrix", "solution.word_matrix"),
    Layer("measure", "sample_path", "measure.sample_path", lambda a: a["n"], "step"),
    Layer("measure", "entropy_rate_estimate", "measure.entropy_rate_estimate",
          lambda a: a["n"], "step"),
    Layer("measure", "walk_tree", "measure.walk_tree", iterates=True),
    Layer("measure", "interval_measure", "measure.interval_measure"),
    Layer("measure", "ratio_state", "measure.ratio_state"),
    Layer("_kernels", "path_arrays", "kernels.path_arrays"),
    Layer("_kernels", "path_sums", "kernels.path_sums"),
    Layer("stationary", "stationarity_check", "stationary.stationarity_check"),
    Layer("stationary", "doubling_map_change_of_measure",
          "stationary.doubling_map_change_of_measure",
          lambda a: 2 ** a["quad_depth"], "cell"),
)

#: Every CLI handler (cmd_*) is one span; its self time is the report
#: rendering (CSV and JSON building) left after the library calls.
RENDER_SPAN = "cli.render"

#: Counted in a separate pass, so counting does not distort the spans.
COUNTED = ("mat_mul", "apply_mobius", "renormalize")

#: Span names whose call counts are reported.
COUNTED_SPANS = ("solution.inverse_evaluate", "solution.word_matrix", "measure.sample_path")


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "derham_lft" or k.startswith("derham_lft.")]


def _rebind(original, replacement) -> None:
    """Point every binding of `original` in the package at `replacement`."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
            elif type(value) is dict:
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement


@contextlib.contextmanager
def _patched(wrappers: dict):
    """Install {original: wrapper} for the duration of the block."""
    for original, wrapper in wrappers.items():
        _rebind(original, wrapper)
    try:
        yield
    finally:
        for original, wrapper in wrappers.items():
            _rebind(wrapper, original)


def _targets() -> list:
    """(function, span name, layer or None) for every function to wrap
    that exists in this version of the package; missing ones are skipped."""
    out = []
    for layer in LAYERS:
        fn = getattr(sys.modules.get(f"derham_lft.{layer.module}"), layer.attr, None)
        if callable(fn):
            out.append((fn, layer.span, layer))
    cli = sys.modules.get("derham_lft.cli")
    for attr, fn in sorted(vars(cli).items()) if cli else ():
        if attr.startswith("cmd_") and inspect.isfunction(fn):
            out.append((fn, RENDER_SPAN, None))
    return out


class Tracer:
    """Records spans [name, start, end, parent, mode, units] in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str, mode: str, units) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, mode, units])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: Optional[Layer]):
        signature = inspect.signature(fn)

        def describe(args, kwargs):
            if layer is None or layer.units is None:
                return "", None
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                system = next(iter(bound.arguments.values()))
                mode = "exact" if system.exact else "approx"
                return mode, layer.units(bound.arguments)
            except (KeyError, TypeError, AttributeError, StopIteration):
                return "", None

        if layer is not None and layer.iterates:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self._open(name, *describe(args, kwargs))
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(index)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, *describe(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def installed(self):
        """Context manager wrapping every layer of the imported package."""
        return _patched({fn: self._wrap(fn, name, layer) for fn, name, layer in _targets()})

    def layer_metrics(self, speed) -> dict:
        """Self seconds, call counts and ns per unit of work, by metric
        name; durations are rescaled by `speed` (pace.Speed)."""
        spans = self.spans
        duration = [speed.scaled(start, end) for _, start, end, _, _, _ in spans]
        inner = [0.0] * len(spans)
        for span, seconds in zip(spans, duration):
            if span[3] >= 0:
                inner[span[3]] += seconds
        self_s: dict = {}
        calls: dict = {}
        work: dict = {}  # (span, mode) -> [inclusive seconds, units]
        for (name, _, _, _, mode, units), seconds, child in zip(spans, duration, inner):
            self_s[name] = self_s.get(name, 0.0) + seconds - child
            calls[name] = calls.get(name, 0) + 1
            if units:
                acc = work.setdefault((name, mode), [0.0, 0])
                acc[0] += seconds
                acc[1] += units
        out = {f"{RENDER_SPAN}_s": self_s.get(RENDER_SPAN, 0.0)}
        for layer in LAYERS:
            out[f"{layer.span}_s"] = self_s.get(layer.span, 0.0)
            if layer.span in COUNTED_SPANS:
                out[f"{layer.span}.calls"] = calls.get(layer.span, 0)
            if layer.units:
                for mode in ("exact", "approx"):
                    seconds, units = work.get((layer.span, mode), (0.0, 0))
                    out[f"{layer.span}.{mode}_ns_per_{layer.per}"] = (
                        seconds / units * 1e9 if units else 0.0
                    )
        return out


class Counter:
    """Counts calls of the numerics primitives at every binding."""

    def __init__(self) -> None:
        self.counts = {f"numerics.{fn}.calls": 0 for fn in COUNTED}

    def _wrap(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def installed(self):
        numerics = sys.modules["derham_lft.numerics"]
        wrappers = {}
        for attr in COUNTED:
            fn = getattr(numerics, attr, None)
            if callable(fn):
                wrappers[fn] = self._wrap(fn, f"numerics.{attr}.calls")
        return _patched(wrappers)


"""Command line interface.

    derham-lft <validate|plot|classify|dimension|sample|stationary>
               [--config FILE | --preset NAME:PARAM] [--depth K] [--tol T]
               [--seed S] [--out PATH] [--mode exact|approx] ...

Config files are JSON; a top-level "schema", if given, must be 1.
Matrix entries are strings: "num/den" or integers parse to exact
rationals, anything with a decimal point or exponent parses to a float
and switches the whole system to approximate mode.  Alternatively
"preset": {"lebesgue": "1/3"} or {"walk": "1"}.  Reports are JSON (CSV
for the value grids), written to --out or stdout.

Exit codes: 0 ok, 1 validation or analysis precondition failure,
2 parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys as _sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from . import __version__
from .errors import DeRhamError, ValidationError

if TYPE_CHECKING:  # each command imports the modules it runs, on use
    from .analysis import DimensionBounds
    from .numerics import MoebiusMatrix, Scalar
    from .system import DeRhamSystem

SCHEMA_VERSION = 1

#: Rows per block of the plot CSV: a block is rendered with one repr per
#: column and written before the next block is formed.
_CSV_BLOCK = 4096

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ConfigError(ValueError):
    """Unparseable configuration; maps to exit code 2."""


def parse_scalar(text: str) -> Scalar:
    """Rational strings stay exact; decimal notation becomes a float."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ConfigError(f"scalar {_shown(text)} has a zero denominator") from None
        except ValueError:  # past the int string conversion limit
            raise ConfigError(f"scalar {_shown(text)} has too many digits") from None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse scalar {_shown(text)}") from None
    if not math.isfinite(value):
        raise ConfigError(f"scalar {_shown(text)} is not finite")
    return value


def _shown(text: str) -> str:
    """repr of text for an error line, cut after 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _parse_matrix(name: str, raw) -> MoebiusMatrix:
    from .numerics import MoebiusMatrix

    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ConfigError(f"{name} must be a list of four entry strings")
    return MoebiusMatrix(*(parse_scalar(str(e)) for e in raw))


def _system_from_preset(name: str, param: str) -> DeRhamSystem:
    from .presets import PRESETS

    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name](parse_scalar(param))


def load_system(
    args: argparse.Namespace, meta: Optional[dict] = None
) -> tuple[DeRhamSystem, dict]:
    """Build the system from --preset or --config, honoring --mode, and the
    report's meta: schema, the preset or the config's label, and mode.  A
    `meta` the caller passes is filled in place as the input is read, so
    after a ValidationError it holds every key but mode."""
    from .presets import force_approx
    from .system import validate

    meta = {} if meta is None else meta
    meta["schema"] = SCHEMA_VERSION
    if args.preset and args.config:
        raise ConfigError("give exactly one of --preset and --config")
    if args.preset:
        if ":" not in args.preset:
            raise ConfigError("preset must look like name:param, e.g. lebesgue:1/3")
        name, param = args.preset.split(":", 1)
        meta["preset"] = args.preset
        system = _system_from_preset(name, param)
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _IOFailure(f"cannot read config: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError:  # a JSON integer past the int string conversion limit
            raise ConfigError("config parse error: a number has too many digits") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        schema = doc.get("schema", SCHEMA_VERSION)
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise ConfigError(f'config "schema" must be 1, got {_shown(json.dumps(schema))}')
        if "label" in doc:
            meta["label"] = str(doc["label"])
        has_matrices = "A0" in doc or "A1" in doc
        has_preset = "preset" in doc
        if has_matrices == has_preset:
            raise ConfigError("config needs exactly one of (A0 and A1) or preset")
        if has_preset:
            preset = doc["preset"]
            if not (isinstance(preset, dict) and len(preset) == 1):
                raise ConfigError('preset must be an object like {"lebesgue": "1/3"}')
            (name, param), = preset.items()
            system = _system_from_preset(name, str(param))
        else:
            if "A0" not in doc or "A1" not in doc:
                raise ConfigError("config needs both A0 and A1")
            system = validate(
                _parse_matrix("A0", doc["A0"]), _parse_matrix("A1", doc["A1"])
            )
    else:
        raise ConfigError("one of --preset or --config is required")

    if args.mode == "approx" and system.exact:
        system = force_approx(system)
    elif args.mode == "exact" and not system.exact:
        raise ConfigError(
            "exact mode requested but the input only has a floating-point "
            "representation"
        )
    meta["mode"] = system.mode
    return system, meta


class _IOFailure(OSError):
    pass


def _scalar_repr(x: Scalar):
    """Exact scalars as strings, floats as JSON numbers."""
    from .numerics import is_exact

    if is_exact(x):
        return str(Fraction(x))
    return float(x)


@contextlib.contextmanager
def _writer(out: Optional[str]) -> Iterator[Callable[[str], object]]:
    """The write function of stdout, or of the file `out`; an OSError
    opening or writing the file becomes _IOFailure (exit 3)."""
    if out is None:
        yield _sys.stdout.write
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh.write
    except OSError as exc:
        raise _IOFailure(f"cannot write {out!r}: {exc}") from exc


def _report(args: argparse.Namespace, meta: dict, code: int = 0, **fields) -> int:
    """Write meta, the command and the fields as one JSON report to
    --out or stdout, and return the exit code."""
    doc = dict(meta, command=args.command, **fields)
    with _writer(args.out) as write:
        write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return code


def cmd_validate(args) -> int:
    from .system import transpose_fixed_points

    meta: dict = {}
    try:
        system, meta = load_system(args, meta)
    except ValidationError as exc:
        violations = [{"condition": cond, "detail": detail} for cond, detail in exc.violations]
        return _report(args, dict(meta, mode=exc.mode), 1, valid=False, violations=violations)
    fp0, (fp_minus1, fp1) = transpose_fixed_points(system)
    return _report(
        args,
        meta,
        valid=True,
        conditions={"A1": True, "A2": True, "A3": True},
        alpha=_scalar_repr(system.alpha),
        beta=_scalar_repr(system.beta),
        gamma=_scalar_repr(system.gamma),
        fixed_points={
            "transposed_A0": _scalar_repr(fp0),
            "transposed_A1": [_scalar_repr(fp_minus1), _scalar_repr(fp1)],
        },
    )


def _reprs(floats: list[float]) -> list[str]:
    """repr of each float, cut out of one repr of their list."""
    return repr(floats)[1:-1].split(", ") if floats else []


def _grid_xs(start: int, stop: int, depth: int) -> list[str]:
    """repr(j / 2**depth) for start <= j < stop.  Up to depth 16 it is the
    exact decimal j * 5**depth / 10**depth: a shorter decimal lies at least
    5 * 10**-depth away, more than half an ulp (at most 2**-54) below 1,
    so repr prints the same digits wherever it writes no exponent.  Rows
    below 1e-4, x = 1 and deeper grids keep repr."""
    n, ten, step = 1 << depth, 10**depth, 5**depth
    low = min(max(start, n // 10**4 + 1), stop) if depth <= 16 else stop
    high = max(low, min(stop, n))
    xs = _reprs([j / n for j in range(start, low)])
    xs += ["0." + t[1:].rstrip("0") for t in map(str, range(ten + low * step, ten + high * step, step))]
    return xs + _reprs([j / n for j in range(high, stop)])


def cmd_grid(args) -> int:
    from .solution import _value_table

    system, _ = load_system(args)
    table = _value_table(system, args.depth)
    with _writer(args.out) as write:
        write("x,f_lower,f_upper\n")
        for start in range(0, (1 << args.depth) + 1, _CSV_BLOCK):
            fs = _reprs(table.cut(slice(start, start + _CSV_BLOCK)).floats())
            xs = _grid_xs(start, start + len(fs), args.depth)
            write("\n".join(map(",".join, zip(xs, fs, fs))) + "\n")
    return 0


def _bounds_fields(bounds: DimensionBounds) -> dict:
    return {
        "entropy_max_nats": bounds.entropy_max,
        "entropy_min_nats": bounds.entropy_min,
        "dim_upper": bounds.dim_upper,
        "dim_lower": bounds.dim_lower,
        "argmax_location": _scalar_repr(bounds.argmax_location),
    }


def cmd_classify(args) -> int:
    from .analysis import ABSOLUTELY_CONTINUOUS, classify

    system, meta = load_system(args)
    report = classify(system)
    if report.verdict == ABSOLUTELY_CONTINUOUS:
        fields = {"c0": _scalar_repr(report.c0)}
        if report.exactness == "approx":
            _sys.stderr.write(
                "warning: absolute continuity decided from floating-point input "
                "is not certifiable\n"
            )
    else:
        fields = dict(_bounds_fields(report.bounds), defect_bound=report.defect_bound)
    return _report(
        args,
        meta,
        verdict=report.verdict,
        ac_condition_0=report.ac_condition_0,
        ac_condition_1=report.ac_condition_1,
        exactness=report.exactness,
        **fields,
    )


def cmd_dimension(args) -> int:
    from .analysis import dimension_bounds

    system, meta = load_system(args)
    return _report(args, meta, **_bounds_fields(dimension_bounds(system)))


def cmd_sample(args) -> int:
    from .measure import DEFAULT_SEED, _sample_report
    from .system import binary_entropy

    system, meta = load_system(args)
    n = args.steps
    seed = DEFAULT_SEED if args.seed is None else args.seed
    report = _sample_report(system, n, seed)
    estimate = report.entropy_rate
    return _report(
        args,
        meta,
        seed=seed,
        steps=n,
        digit0_frequency=report.zeros / n,
        entropy_rate_estimate=estimate,
        entropy_rate_dim=estimate / binary_entropy(Fraction(1, 2)),
        state_min=report.state_min,
        state_max=report.state_max,
        alpha=_scalar_repr(system.alpha),
        beta=_scalar_repr(system.beta),
    )


def cmd_stationary(args) -> int:
    from .stationary import _check_quadrature, doubling_map_change_of_measure, stationarity_check

    if not math.isfinite(args.tol):  # the finiteness rule of parse_scalar
        raise ConfigError(f"tol {args.tol!r} is not finite")
    if args.quad_depth is None and args.shift_depth is not None:
        raise ConfigError("--shift-depth is read only with --quad-depth")
    shift_depth = 4 if args.shift_depth is None else args.shift_depth
    system, meta = load_system(args)
    if args.quad_depth is not None:  # refused before the stationarity sweep
        _check_quadrature(system, shift_depth, args.quad_depth)
    report = stationarity_check(system, args.depth, args.tol)
    quadrature = {}
    if args.quad_depth is not None:
        residual = doubling_map_change_of_measure(system, shift_depth, args.quad_depth)
        quadrature = dict(
            doubling_residual=float(residual),
            shift_depth=shift_depth,
            quad_depth=args.quad_depth,
        )
    return _report(
        args,
        meta,
        depth=report.depth,
        tol=args.tol,
        max_residual_recursion=float(report.max_residual_recursion),
        max_residual_mass=float(report.max_residual_mass),
        verdict_transfer=report.verdict_transfer,
        **quadrature,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derham-lft",
        description="Analyze solutions of the two-branch functional equation "
        "driven by a pair of linear fractional maps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, depth_default=None, tol_default=None):
        p.add_argument("--config", help="JSON system description")
        p.add_argument("--preset", help="name:param, e.g. lebesgue:1/3 or walk:1")
        p.add_argument("--mode", choices=["exact", "approx"], default=None)
        p.add_argument("--out", help="write the report here instead of stdout")
        if depth_default is not None:
            p.add_argument("--depth", type=int, default=depth_default)
        if tol_default is not None:
            p.add_argument("--tol", type=float, default=tol_default)
        return p

    common(sub.add_parser("validate", help="check admissibility, print constants"))
    common(
        sub.add_parser("plot", help="CSV of f on the dyadic grid j/2^depth"),
        depth_default=8,
    )
    common(sub.add_parser("classify", help="singular vs absolutely continuous"))
    common(sub.add_parser("dimension", help="dimension bounds"))
    p_sample = common(sub.add_parser("sample", help="Monte Carlo digit sampling"))
    p_sample.add_argument("-n", "--steps", type=int, default=100_000)
    # None stands for measure.DEFAULT_SEED, so parsing does not import measure.
    p_sample.add_argument("--seed", type=int, default=None)
    p_stat = common(
        sub.add_parser("stationary", help="stationarity residual report"),
        depth_default=8,
        tol_default=1e-11,
    )
    p_stat.add_argument("--quad-depth", type=int, default=None)
    p_stat.add_argument("--shift-depth", type=int, default=None)  # 4 with --quad-depth
    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "plot": cmd_grid,
    "classify": cmd_classify,
    "dimension": cmd_dimension,
    "sample": cmd_sample,
    "stationary": cmd_stationary,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    except _IOFailure as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 3
    except DeRhamError as exc:
        _sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

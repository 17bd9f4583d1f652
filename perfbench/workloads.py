"""The benchmark's three workloads and the oracle for every request.

Each workload is a list of requests generated from the workload seed.
`grid` and `sample` requests are CLI invocations (the argv after
``derham-lft``); `query` requests are library calls for the query worker
(see query.py).  Every request carries a check that raises CheckFailed
when the output is wrong, so a wrong answer counts as a failed request.

Oracles.  Exact outputs are compared with closed forms: f(x) = 2x/(x+1)
and g(y) = y/(2-y) for walk:1, masses (1/3)^k (2/3)^(n-k) for
lebesgue:1/3 (k zeros in an address of length n), and stationarity
residuals of exactly 0.  Approx outputs must lie within TOL of the
closed form where one exists; walk:0.5 has none, so its outputs are
checked by the functional equation, monotonicity and the
evaluate/inverse_evaluate round trip.  The float slack is TOL, well
above round-off, so outward-rounded float enclosures still pass.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

#: Tolerance of every evaluate / inverse_evaluate call, and the slack
#: allowed to float outputs against an exact oracle.
TOL = 1e-12

#: Unit round-off of float64.
EPS = 2.0**-53

#: Float ratio states may spill out of [alpha, beta] by this much
#: (derham_lft.measure.STATE_ATOL).
STATE_ATOL = 1e-10

LN2 = math.log(2.0)

WORKLOADS = ("grid", "sample", "query")

# Input sizes; `small` shrinks every request for the smoke tests.
SIZES = {
    False: dict(
        walk_depth=14, leb_depth=13, approx_depth=16,
        stat_depth=8, stat_quad=12, approx_quad=14,
        leb14_steps=100_000, walk1_steps=3000, approx_steps=1_000_000,
        points=250, addresses=250, addr_depth=(20, 40), tree_depth=10,
    ),
    True: dict(
        walk_depth=6, leb_depth=5, approx_depth=7,
        stat_depth=3, stat_quad=6, approx_quad=6,
        leb14_steps=300, walk1_steps=100, approx_steps=2000,
        points=6, addresses=6, addr_depth=(4, 8), tree_depth=3,
    ),
}


class CheckFailed(Exception):
    """A request's output disagrees with its oracle."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Request:
    """One CLI invocation or one library call, with its oracle.

    `name` is unique in the workload, so per-request timings can be
    matched across passes.  `kind` names the latency class of a
    point query (eval_exact, inverse_approx, ...), else "".
    """

    name: str
    mode: str
    payload: tuple
    check: Callable[[str], None] = field(compare=False)
    kind: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool
    requests: list
    #: Point queries whose latencies every workload reports; for `query`
    #: they are part of `requests`, elsewhere they run once after them.
    probe: list


def binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def _walk_half_maps():
    """Float A0 and A1 of walk:0.5, from the preset's defining formula."""
    u = 0.5
    x = 2.0 / (1.0 + math.sqrt(1.0 + 8.0 * u * u))
    uxx = u * u * x * x
    return (x, 0.0, -uxx, 1.0), (0.0, x, -uxx, 1.0 - uxx)


def preset_system(dl, preset: str):
    """The library system a CLI ``--preset name:param`` names."""
    name, param = preset.split(":")
    make = {"lebesgue": dl.lebesgue_system, "walk": dl.walk_system}[name]
    return make(Fraction(param))


def _mobius(m, z):
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def _once(check: Callable[[str], None]) -> Callable[[str], None]:
    """Skip re-checking an output that already passed (passes repeat)."""
    passed = set()

    def wrapped(out: str) -> None:
        if out not in passed:
            check(out)
            passed.add(out)

    return wrapped


# ---------------------------------------------------------------- grid


def _grid_table(text: str, depth: int) -> np.ndarray:
    head, _, body = text.partition("\n")
    expect(head == "x,f_lower,f_upper", f"unexpected CSV header {head!r}")
    n = 1 << depth
    table = np.array(body.replace(",", " ").split(), dtype=np.float64)
    expect(table.size == 3 * (n + 1), f"expected {n + 1} rows")
    table = table.reshape(n + 1, 3)
    expect(np.array_equal(table[:, 0], np.arange(n + 1) / n), "x column is not j/2^depth")
    lo, hi = table[:, 1], table[:, 2]
    expect(np.all(lo <= hi) and np.all(hi - lo <= TOL), "enclosure wider than TOL")
    return table


def _check_grid_against(reference: Callable[[int], np.ndarray], depth: int, slack: float):
    """Values must bracket the correctly rounded exact value (exact mode)
    or lie within `slack` of it (approx mode)."""

    def check(text: str) -> None:
        table = _grid_table(text, depth)
        ref = reference(depth)
        ok = np.all(table[:, 1] - slack <= ref) and np.all(ref <= table[:, 2] + slack)
        expect(ok, "grid value off the closed form")

    return check


@functools.lru_cache(maxsize=None)
def walk1_values(depth: int) -> np.ndarray:
    """f(j/2^depth) = 2j/(j + 2^depth) for walk:1, correctly rounded."""
    n = 1 << depth
    return np.array([(2 * j) / (n + j) for j in range(n + 1)])


@functools.lru_cache(maxsize=None)
def lebesgue_third_values(depth: int) -> np.ndarray:
    """f(j/2^depth) for lebesgue:1/3, correctly rounded.

    The interval of address j has mass 2^ones(j) / 3^depth, so
    3^depth f(j/2^depth) is the integer prefix sum of 2^ones.
    """
    den = 3**depth
    out, acc = [], 0
    for j in range(1 << depth):
        out.append(acc / den)
        acc += 1 << bin(j).count("1")
    out.append(acc / den)
    return np.array(out)


def _check_grid_walk_half(depth: int):
    """walk:0.5 has no closed form: check endpoints, monotonicity and the
    functional equation f(x) = A0(f(2x)), f(x) = A1(f(2x - 1))."""
    a0, a1 = _walk_half_maps()

    def check(text: str) -> None:
        table = _grid_table(text, depth)
        n = 1 << depth
        lo, hi = table[:, 1], table[:, 2]
        mid = (lo + hi) / 2
        expect(abs(mid[0]) <= TOL and abs(mid[-1] - 1.0) <= TOL, "f(0), f(1) wrong")
        expect(np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0), "not monotone")
        left = np.abs(mid[: n // 2 + 1] - _mobius(a0, mid[0::2]))
        right = np.abs(mid[n // 2 :] - _mobius(a1, mid[0::2]))
        expect(max(left.max(), right.max()) <= 3 * TOL, "functional equation residual")

    return check


def _check_json(check_doc: Callable[[dict], None]) -> Callable[[str], None]:
    def check(text: str) -> None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        check_doc(doc)

    return check


def _close(got, want: float, what: str, tol: float = TOL) -> None:
    expect(isinstance(got, (int, float)) and abs(got - want) <= tol, f"{what}: {got!r} != {want!r}")


def _check_stationary(depth: int, quad_depth: int, exact: bool):
    def check(doc: dict) -> None:
        tol = doc.get("tol")
        expect(doc.get("depth") == depth and doc.get("quad_depth") == quad_depth, "echoed depths")
        expect(doc.get("verdict_transfer") is True, "verdict_transfer")
        rec, mass = doc.get("max_residual_recursion"), doc.get("max_residual_mass")
        if exact:
            expect(rec == 0 and mass == 0, f"exact residuals {rec}, {mass} not 0")
        else:
            # g(b) - g(a) with each endpoint to tol/2: mass residual <= tol,
            # recursion residual <= tol + tol/2.
            expect(0 <= mass <= tol * (1 + 1e-9), f"mass residual {mass} > tol")
            expect(0 <= rec <= 1.5 * tol * (1 + 1e-9), f"recursion residual {rec} > 1.5 tol")
        # Midpoint-rule quadrature error; walk:1 has a smooth density.
        residual = doc.get("doubling_residual")
        expect(0 <= residual <= 2.0**-quad_depth, f"doubling residual {residual}")

    return _check_json(check)


VALIDATE_EXPECTED = {
    "lebesgue:1/3": dict(alpha="0", beta="0", gamma="3", fp0="0", fp1=["-1", "0"]),
    "walk:1": dict(alpha="-1/2", beta="0", gamma="3/2", fp0="-1/2", fp1=["-1", "-1/2"]),
}

# Entropy extrema of the digit law over [alpha, beta], in nats.
ENTROPY_EXPECTED = {
    "lebesgue:1/3": (binary_entropy(1 / 3), binary_entropy(1 / 3)),
    "walk:1": (binary_entropy(1 / 3), LN2),
}


def _check_validate(preset: str):
    want = VALIDATE_EXPECTED[preset]

    def check(doc: dict) -> None:
        expect(doc.get("valid") is True, "not valid")
        expect(doc.get("conditions") == {"A1": True, "A2": True, "A3": True}, "conditions")
        for key in ("alpha", "beta", "gamma"):
            expect(doc.get(key) == want[key], f"{key} = {doc.get(key)!r}")
        fixed = doc.get("fixed_points", {})
        expect(fixed.get("transposed_A0") == want["fp0"], "transposed_A0 fixed point")
        expect(fixed.get("transposed_A1") == want["fp1"], "transposed_A1 fixed points")

    return _check_json(check)


def _check_bounds(doc: dict, preset: str) -> None:
    e_min, e_max = ENTROPY_EXPECTED[preset]
    _close(doc.get("entropy_min_nats"), e_min, "entropy_min_nats")
    _close(doc.get("entropy_max_nats"), e_max, "entropy_max_nats")
    _close(doc.get("dim_lower"), e_min / LN2, "dim_lower")
    _close(doc.get("dim_upper"), e_max / LN2, "dim_upper")


def _check_classify(preset: str):
    def check(doc: dict) -> None:
        expect(doc.get("exactness") == "exact", "exactness")
        if preset == "walk:1":
            expect(doc.get("verdict") == "absolutely_continuous", "verdict")
            expect(doc.get("c0") == "-1/4", "c0")
        else:
            expect(doc.get("verdict") == "singular", "verdict")
            _check_bounds(doc, preset)
            bound = doc.get("defect_bound")
            expect(doc.get("dim_lower") <= bound < 1, f"defect bound {bound}")

    return _check_json(check)


def _check_dimension(preset: str):
    return _check_json(lambda doc: _check_bounds(doc, preset))


def grid_requests(s: dict) -> list:
    walk_d, leb_d, approx_d = s["walk_depth"], s["leb_depth"], s["approx_depth"]
    stat_d, quad, approx_quad = s["stat_depth"], s["stat_quad"], s["approx_quad"]
    reqs = [
        Request("plot walk:1 exact", "exact",
                ("plot", "--preset", "walk:1", "--depth", str(walk_d)),
                _check_grid_against(walk1_values, walk_d, 0.0)),
        Request("plot lebesgue:1/3 exact", "exact",
                ("plot", "--preset", "lebesgue:1/3", "--depth", str(leb_d)),
                _check_grid_against(lebesgue_third_values, leb_d, 0.0)),
        Request("plot walk:1 approx", "approx",
                ("plot", "--preset", "walk:1", "--mode", "approx", "--depth", str(approx_d)),
                _check_grid_against(walk1_values, approx_d, TOL)),
        Request("plot walk:0.5", "approx",
                ("plot", "--preset", "walk:0.5", "--depth", str(approx_d)),
                _check_grid_walk_half(approx_d)),
        Request("stationary walk:1 exact", "exact",
                ("stationary", "--preset", "walk:1", "--depth", str(stat_d),
                 "--quad-depth", str(quad)),
                _check_stationary(stat_d, quad, exact=True)),
        Request("stationary walk:1 approx", "approx",
                ("stationary", "--preset", "walk:1", "--mode", "approx",
                 "--depth", str(stat_d), "--quad-depth", str(approx_quad)),
                _check_stationary(stat_d, approx_quad, exact=False)),
    ]
    for preset in ("lebesgue:1/3", "walk:1"):
        for command, make in (
            ("validate", _check_validate),
            ("classify", _check_classify),
            ("dimension", _check_dimension),
        ):
            reqs.append(Request(f"{command} {preset}", "exact",
                                (command, "--preset", preset), make(preset)))
    return reqs


# -------------------------------------------------------------- sample


def _check_sample(dl, preset: str, mode: str, steps: int, seed: int):
    """Echoed fields, states inside [alpha, beta], and the entropy
    estimate inside the dimension bounds.  A float estimate is a
    recursive sum of `steps` terms, so it may leave the bounds by that
    sum's rounding error, steps * EPS * entropy_max (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 4.2)."""
    system = preset_system(dl, preset)
    if mode == "approx":
        system = dl.force_approx(system)
    bounds = dl.dimension_bounds(system)
    alpha, beta = float(system.alpha), float(system.beta)
    exact = mode == "exact"
    slack = TOL if exact else TOL + steps * EPS * bounds.entropy_max
    state_slack = 0.0 if exact else STATE_ATOL

    def check(doc: dict) -> None:
        expect(doc.get("steps") == steps and doc.get("seed") == seed, "echoed steps/seed")
        expect(doc.get("mode") == mode, f"mode {doc.get('mode')!r}")
        expect(0 <= doc.get("digit0_frequency") <= 1, "digit0_frequency")
        expect(float(Fraction(str(doc.get("alpha")))) == alpha, "alpha")
        expect(float(Fraction(str(doc.get("beta")))) == beta, "beta")
        lo, hi = doc.get("state_min"), doc.get("state_max")
        expect(alpha - state_slack <= lo <= hi <= beta + state_slack, f"states [{lo}, {hi}]")
        estimate = doc.get("entropy_rate_estimate")
        ok = bounds.entropy_min - slack <= estimate <= bounds.entropy_max + slack
        expect(ok, f"entropy estimate {estimate!r} outside the dimension bounds")
        _close(doc.get("entropy_rate_dim"), estimate / LN2, "entropy_rate_dim")

    return _check_json(check)


def sample_requests(dl, s: dict, rng: random.Random) -> list:
    cases = (
        ("lebesgue:1/4", "exact", s["leb14_steps"], ()),
        ("walk:1", "exact", s["walk1_steps"], ()),
        ("walk:0.5", "approx", s["approx_steps"], ()),
        ("lebesgue:1/3", "approx", s["approx_steps"], ("--mode", "approx")),
    )
    reqs = []
    for preset, mode, steps, extra in cases:
        seed = rng.randrange(1 << 31)
        argv = ("sample", "--preset", preset, *extra, "-n", str(steps), "--seed", str(seed))
        reqs.append(Request(f"sample {preset} {mode}", mode, argv,
                            _check_sample(dl, preset, mode, steps, seed)))
    return reqs


# --------------------------------------------------------------- query


def _non_dyadic(rng: random.Random, count: int) -> list:
    """Rationals in (0, 1) with odd 20-bit denominators.  One denominator
    size keeps the cost of a call from varying with the seed."""
    out = []
    while len(out) < count:
        q = rng.randrange(1 << 19, 1 << 20) | 1
        out.append(Fraction(rng.randrange(1, q), q))
    return out


def _check_exact_point(reference: Callable[[Fraction], Fraction], x: Fraction):
    def check(out: str) -> None:
        expect(abs(Fraction(out) - reference(x)) <= Fraction(TOL), f"{out} off the closed form")

    return check


def _check_eval_half(dl, system, x: float):
    """walk:0.5 evaluate: functional equation and round trip through the
    inverse, both with the library as a second opinion."""
    a0, a1 = _walk_half_maps()

    def check(out: str) -> None:
        v = float(out)
        z, m = (2 * x, a0) if x < 0.5 else (2 * x - 1, a1)
        w = dl.evaluate(system, z, TOL)
        # |v - f(x)| <= TOL, |w - f(2x mod 1)| <= TOL, and A0, A1 are
        # 1-Lipschitz on [0, 1] for walk:0.5.
        expect(abs(v - _mobius(m, w)) <= 3 * TOL, "functional equation residual")
        lo = dl.inverse_evaluate(system, max(v - TOL, 0.0), TOL) - TOL
        hi = dl.inverse_evaluate(system, min(v + TOL, 1.0), TOL) + TOL
        expect(lo <= x <= hi, "evaluate/inverse_evaluate round trip")

    return _once(check)


def _check_inverse_half(dl, system, y: float):
    def check(out: str) -> None:
        x = float(out)
        lo = dl.evaluate(system, max(x - TOL, 0.0), TOL) - TOL
        hi = dl.evaluate(system, min(x + TOL, 1.0), TOL) + TOL
        expect(lo <= y <= hi, "inverse_evaluate/evaluate round trip")

    return _once(check)


def point_requests(dl, count: int, rng: random.Random) -> list:
    """evaluate and inverse_evaluate at `count` points each per mode:
    exact on walk:1, approx on walk:0.5."""
    half = dl.walk_system(0.5)
    reqs = []
    for i, x in enumerate(_non_dyadic(rng, count)):
        reqs.append(Request(f"evaluate exact #{i}", "exact",
                            ("evaluate", "walk:1", str(x), repr(TOL)),
                            _check_exact_point(lambda t: 2 * t / (t + 1), x), "eval_exact"))
    for i, y in enumerate(_non_dyadic(rng, count)):
        reqs.append(Request(f"inverse exact #{i}", "exact",
                            ("inverse_evaluate", "walk:1", str(y), repr(TOL)),
                            _check_exact_point(lambda t: t / (2 - t), y), "inverse_exact"))
    for i, x in enumerate(_non_dyadic(rng, count)):
        xf = float(x)
        reqs.append(Request(f"evaluate approx #{i}", "approx",
                            ("evaluate", "walk:0.5", repr(xf), repr(TOL)),
                            _check_eval_half(dl, half, xf), "eval_approx"))
    for i, y in enumerate(_non_dyadic(rng, count)):
        yf = float(y)
        reqs.append(Request(f"inverse approx #{i}", "approx",
                            ("inverse_evaluate", "walk:0.5", repr(yf), repr(TOL)),
                            _check_inverse_half(dl, half, yf), "inverse_approx"))
    return reqs


def third_mass(bits: str) -> Fraction:
    zeros = bits.count("0")
    return Fraction(1, 3) ** zeros * Fraction(2, 3) ** (len(bits) - zeros)


def _preorder(depth: int, prefix: str = ""):
    yield prefix
    if len(prefix) < depth:
        for digit in "01":
            yield from _preorder(depth, prefix + digit)


def _check_walk_tree(depth: int):
    order = list(_preorder(depth))

    def check(out: str) -> None:
        nodes = json.loads(out)
        expect([n[0] for n in nodes] == order, "walk_tree nodes not in pre-order")
        for bits, mass, state in nodes:
            expect(Fraction(mass) == third_mass(bits), f"mass of {bits}")
            expect(Fraction(state) == 0, f"state of {bits}")

    return _once(check)


def query_requests(dl, s: dict, rng: random.Random) -> list:
    reqs = point_requests(dl, s["points"], rng)
    lo, hi = s["addr_depth"]
    for i in range(s["addresses"]):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))
        want = third_mass(bits)
        reqs.append(Request(f"interval_measure #{i}", "exact",
                            ("interval_measure", "lebesgue:1/3", bits, "0"),
                            lambda out, want=want: expect(Fraction(out) == want, "mass")))
        reqs.append(Request(f"ratio_state #{i}", "exact",
                            ("ratio_state", "lebesgue:1/3", bits, "0"),
                            lambda out: expect(Fraction(out) == 0, "lebesgue state is 0")))
    depth = s["tree_depth"]
    reqs.append(Request("walk_tree", "exact", ("walk_tree", "lebesgue:1/3", str(depth), "0"),
                        _check_walk_tree(depth)))
    return reqs


def build(dl, name: str, seed: int, small: bool = False) -> Workload:
    """The workload's requests; every random input comes from `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    s = SIZES[small]
    rng = random.Random(f"{name}:{seed}")
    if name == "query":
        return Workload(name, False, query_requests(dl, s, rng), [])
    requests = grid_requests(s) if name == "grid" else sample_requests(dl, s, rng)
    return Workload(name, True, requests, point_requests(dl, s["points"], rng))

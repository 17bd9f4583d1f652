"""The speculative lane sweep of fill_path against one sequential loop,
the positioned uniform draw against numpy's own stream, the memory a
float path and a streamed report hold, and the exact float sum of the
entropy terms against math.fsum.

A long float path runs in _kernels.LANES lanes that are checked and
repaired against the Python loop; the digits and state bits must equal
those of one unblocked path_arrays call over the whole path.
"""

import random
import tracemalloc
import warnings
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from derham_lft import (
    _kernels,
    entropy_rate_estimate,
    force_approx,
    lebesgue_system,
    sample_path,
    walk_system,
)
from derham_lft.cli import main
from derham_lft.measure import (
    _ENTROPY_BLOCK,
    _WINDOW,
    DEFAULT_SEED,
    _exact_total,
    _float_params,
    _uniforms,
)
from helpers import draw_from, philox_uniforms, random_valid_system

THRESHOLD = _kernels.LANES * _kernels.BURN_IN
WHOLE = _kernels.LANES * 300
LONGEST = 10**6 + 3
LENGTHS = (1, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, WHOLE, WHOLE + 1, LONGEST)


def _systems():
    rng = random.Random(808)
    out = [
        walk_system(0.5),
        force_approx(walk_system(1)),
        force_approx(walk_system(Fraction(3, 2))),
    ]
    out += [force_approx(random_valid_system(rng, scaled=bool(i % 2))) for i in range(9)]
    return out


SYSTEMS = _systems()


@pytest.fixture(scope="module")
def uniforms():
    return philox_uniforms(2718, LONGEST)


def _oracle(params, u):
    """One unblocked pure-Python loop over the whole path."""
    digits, states = bytearray(len(u)), [0.0] * len(u)
    _kernels.path_arrays(*params, 0.0, u.tolist(), digits, states)
    return np.frombuffer(digits, dtype=np.uint8), np.array(states)


def _fill(params, u):
    digits = np.empty(len(u), dtype=np.uint8)
    states = np.empty(len(u), dtype=np.float64)
    _kernels.fill_path(params, draw_from(u), digits, states)
    return digits, states


def _assert_prefix(params, u, want_digits, want_states, lengths=LENGTHS):
    # The path of u[:n] is the first n steps of the path of u.
    for n in lengths:
        digits, states = _fill(params, u[:n])
        assert np.array_equal(digits, want_digits[:n]), n
        assert states.tobytes() == want_states[:n].tobytes(), n  # tells -0.0 from 0.0


@pytest.fixture
def repairs(monkeypatch):
    """Counts the chunks the lane check sends to _repair."""
    calls = []
    repair = _kernels._repair

    def counted(*args):
        calls.append(len(args[2]))
        return repair(*args)

    monkeypatch.setattr(_kernels, "_repair", counted)
    return calls


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_lanes_equal_one_unblocked_loop(index, uniforms):
    params = _float_params(SYSTEMS[index])
    _assert_prefix(params, uniforms, *_oracle(params, uniforms))


@pytest.mark.parametrize("burn_in, repair", [(0, 16), (1, 16), (0, 10**9)])
def test_forced_repairs_keep_the_bits(burn_in, repair, uniforms, repairs, monkeypatch):
    # Lanes started on 0.0 with (almost) no burn-in miss the true state of
    # their chunk; a run longer than a chunk re-runs chunks whole.
    monkeypatch.setattr(_kernels, "BURN_IN", burn_in)
    monkeypatch.setattr(_kernels, "REPAIR", repair)
    u = uniforms[:WHOLE + 7]
    for system in SYSTEMS[:4]:
        params = _float_params(system)
        repairs.clear()
        _assert_prefix(params, u, *_oracle(params, u), lengths=(WHOLE + 7,))
        assert len(repairs) > _kernels.LANES // 2


@pytest.mark.parametrize("split", (1, THRESHOLD - 1, THRESHOLD, WHOLE + 1))
def test_start_state_carries_the_path_on(split, uniforms):
    # The path of u, cut anywhere: the second part run from the end state
    # that fill_path returns for the first is the rest of the whole path.
    u = uniforms[:2 * WHOLE + 3]
    for system in SYSTEMS[:4]:
        params = _float_params(system)
        want_digits, want_states = _oracle(params, u)
        digits = np.empty(len(u), dtype=np.uint8)
        states = np.empty(len(u), dtype=np.float64)
        t = _kernels.fill_path(params, draw_from(u), digits[:split], states[:split])
        rest = draw_from(u[split:])
        end = _kernels.fill_path(params, rest, digits[split:], states[split:], t)
        assert np.array_equal(digits, want_digits)
        assert states.tobytes() == want_states.tobytes()
        last = int(want_digits[-1])
        a, b, c, d = params[4 * last : 4 * last + 4]
        x = want_states[-1]
        assert end == (a * x + c) / (b * x + d)


def test_default_burn_in_needs_no_repair_on_walk(uniforms, repairs):
    for system in SYSTEMS[:3]:
        _fill(_float_params(system), uniforms)
    assert repairs == []


@pytest.fixture
def whole_path_runs(monkeypatch):
    """Lengths of the Python-loop runs that start a path from 0.0."""
    runs = []
    python_path = _kernels._python_path

    def recorded(params, t, u, *arrays):
        if t == 0.0:
            runs.append(len(u))
        return python_path(params, t, u, *arrays)

    monkeypatch.setattr(_kernels, "_python_path", recorded)
    return runs


def test_non_finite_states_fall_back(uniforms, whole_path_runs):
    # Digit 0 overflows the state to inf, after which p0 and every
    # state are NaN: the Python loop returns these without raising.
    params = (1e300, 0.0, 1e300, 1e-300, 1.0, 1.0, 0.0, 2.0, 2.0)
    u = uniforms[:THRESHOLD + 3]
    digits, states = _oracle(params, u)
    assert np.isnan(states).any() and np.isinf(states).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the lane sweep must not warn either
        got_digits, got_states = _fill(params, u)
    assert whole_path_runs == [len(u)]
    assert np.array_equal(got_digits, digits)
    assert got_states.tobytes() == states.tobytes()


@pytest.mark.parametrize(
    "params",
    [
        # Digit 0 maps 0 to -2 = -gamma, the pole of the digit law: numpy
        # would draw on from p0 = -inf, the Python loop divides by zero.
        (1.0, 0.0, -2.0, 1.0, 1.0, 0.0, 0.0, 1.0, 2.0),
        # Digit 1 has the pole b1*t + d1 = 0 at t = 0.
        (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0),
    ],
)
def test_poles_raise_as_the_loop_does(params, uniforms, whole_path_runs):
    u = uniforms[:THRESHOLD]
    with pytest.raises(ZeroDivisionError):
        _oracle(params, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError):
            _fill(params, u)
    assert whole_path_runs == [len(u)]


def test_no_path_sized_temporary(uniforms):
    params = _float_params(SYSTEMS[0])
    digits = np.empty(LONGEST, dtype=np.uint8)
    states = np.empty(LONGEST, dtype=np.float64)
    draw = draw_from(uniforms)
    _kernels.fill_path(params, draw, digits, states)  # warm up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _kernels.fill_path(params, draw, digits, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A uint8 or bool copy of the path alone would take LONGEST bytes.
    assert peak < LONGEST // 8


def _peak(call):
    """Bytes call() allocates at its peak above what was held before it."""
    call()  # warm up: imports and numpy's caches are not the call's own
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


class TestPathMemory:
    """A path holds its digits and states, 9 bytes per step, and no array
    of uniforms beside them; a streamed report holds one window of them."""

    @pytest.mark.parametrize(
        "system",
        [walk_system(0.5), force_approx(lebesgue_system(Fraction(1, 3)))],
        ids=["walk:0.5", "lebesgue:1/3 approx"],
    )
    def test_sample_path_nine_bytes_per_step(self, system):
        assert _peak(lambda: sample_path(system, LONGEST, seed=1)) <= 9 * LONGEST + (1 << 20)

    # A path of 4 windows would hold about 9.4 MB.
    def test_entropy_rate_estimate_holds_one_window(self):
        system = SYSTEMS[0]
        assert _peak(lambda: entropy_rate_estimate(system, 4 * _WINDOW, seed=1)) < 4 << 20

    def test_cli_report_holds_one_window(self, capsys):
        argv = ["sample", "--preset", "walk:0.5", "-n", str(4 * _WINDOW), "--seed", "1"]
        assert _peak(lambda: main(argv)) < 4 << 20
        assert capsys.readouterr().out.count('"steps"') == 2


class TestPositionedDraw:
    """measure._uniforms(seed, start, out) against the first n uniforms
    of the seed's stream drawn by numpy alone."""

    STARTS = sorted(
        {*range(10)}
        | {4 * j + i for j in (1, 2, 3, 250, 1 << 14, LONGEST // 4 - 1) for i in (-1, 0, 1)}
        | {(LONGEST // _kernels.LANES) * j for j in (1, 2, 3, _kernels.LANES - 1, _kernels.LANES)}
        | {LONGEST - 1}
    )

    @pytest.mark.parametrize("start", STARTS)
    def test_equals_the_stream_from_start(self, start, uniforms):
        for k in (1, 3, 4, 5, _kernels.REPAIR, 977, LONGEST - start):
            k = min(k, LONGEST - start)
            out = np.empty(k)
            _uniforms(2718, start, out)
            assert out.tobytes() == uniforms[start : start + k].tobytes(), (start, k)

    def test_other_seeds(self):
        for seed in (0, 1, DEFAULT_SEED, 2**63):
            want = philox_uniforms(seed, 4099)
            for start in (0, 1, 2, 3, 4, 5, 4095, 4096, 4098):
                out = np.empty(4099 - start)
                _uniforms(seed, start, out)
                assert out.tobytes() == want[start:].tobytes(), (seed, start)


class TestExactSum:
    @staticmethod
    def _check(x):
        # The totals of the _ENTROPY_BLOCK blocks of x, summed and divided
        # by 2^1126, as _sample_report forms its sum.
        blocks = [x[i : i + _ENTROPY_BLOCK] for i in range(0, len(x), _ENTROPY_BLOCK)]
        totals = [_exact_total(block) for block in blocks]
        assert None not in totals
        assert (sum(totals) / (1 << 1126)).hex() == fsum(x.tolist()).hex()

    # 2^16 and 2^16 + 1 terms span several blocks.
    @pytest.mark.parametrize(
        "n", (1, 2, 3, 1000, _ENTROPY_BLOCK, _ENTROPY_BLOCK + 1, 1 << 16, (1 << 16) + 1)
    )
    def test_mixed_signs_over_40_decades(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            self._check(rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n))

    @pytest.mark.parametrize("n", (2, 1000, _ENTROPY_BLOCK + 1, (1 << 16) + 1))
    def test_subnormals_and_zeros(self, n):
        rng = np.random.default_rng(n + 7)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)
        x[rng.random(n) < 0.3] = 0.0
        x[rng.random(n) < 0.3] = -0.0
        x[rng.random(n) < 0.3] = rng.integers(-(1 << 52), 1 << 52, n)[0] * 5e-324
        x[0] = 5e-324
        self._check(x)
        self._check(x[x < 2.2250738585072014e-308])  # subnormals and zeros only

    def test_cancellation_and_ties(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5000) * 10.0 ** rng.uniform(-20, 20, 5000)
        self._check(np.concatenate([x, -x[::-1], [1e-30]]))
        # 1 + 2^-53 lies halfway between two floats: ties go to even.
        self._check(np.array([1.0, 2.0**-53]))
        self._check(np.array([1.0 + 2.0**-52, 2.0**-53]))

    def test_full_block_of_largest_mantissas(self):
        # 2^16 mantissas of 53 ones, in blocks and as one block: the
        # per-exponent half sums stay exact up to 2^16 terms a block.
        for x in (np.nextafter(1.0, 0.0), -np.nextafter(2.0**900, 0.0)):
            x = np.full(1 << 16, x)
            self._check(x)
            assert (_exact_total(x) / (1 << 1126)).hex() == fsum(x.tolist()).hex()

    @pytest.mark.parametrize(
        "x",
        [[0.0, 1.0, np.inf], [np.nan, 1.0], [-np.inf], [2.0**970], [0.0, -0.0], [1.0, -1.0]],
    )
    def test_none_or_zero_total(self, x):
        # A non-finite or huge term declines (None), and an exact zero sum
        # totals 0 (fsum picks the sign of zero): the rate is NaN on both,
        # with the terms in one block or one term a block.
        x = np.array(x)
        assert _exact_total(x) in (None, 0)
        totals = [_exact_total(block) for block in x.reshape(-1, 1)]
        assert None in totals or sum(totals) == 0

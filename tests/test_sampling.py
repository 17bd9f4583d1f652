"""Sampling shortcuts against the plain step loops they replace.

Affine pairs (c0 = c1 = 0) are drawn in closed form, and the float loop
of a short path runs on lists in blocks; both must reproduce, bit for
bit, the digits and states of one sequential loop over the whole path.
A report run in windows (`measure._sample_report`) must equal, bit for
bit, the report read off the whole path.
"""

import json
import random
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from derham_lft import (
    DomainError,
    MoebiusMatrix,
    binary_entropy,
    force_approx,
    lebesgue_system,
    prob_digit0,
    sample_path,
    validate,
    walk_system,
)
from derham_lft import _kernels, measure
from derham_lft.cli import main
from derham_lft.measure import _DRAW_BLOCK, _float_params
from helpers import draw_from, philox_uniforms, random_valid_system, transposed_step

LENGTHS = (1, 4095, 4096, 4097, 3 * _kernels.BLOCK + 5)


def _lebesgue_systems():
    rng = random.Random(4242)
    out = []
    for _ in range(10):
        den = rng.randint(2, 60)
        out.append(lebesgue_system(Fraction(rng.randint(1, den - 1), den)))
    return out


def _loop(system, n, seed, u=None):
    """One unblocked pure-Python loop over numpy arrays, on the given
    uniforms or else the seed's stream."""
    u = philox_uniforms(seed, n) if u is None else u
    digits = np.empty(n, dtype=np.uint8)
    states = np.empty(n, dtype=np.float64)
    _kernels.path_arrays(*_float_params(system), 0.0, u, digits, states)
    return digits, states


def _fold(system, n, seed, u=None):
    """The exact path as a fold of the public single-step primitives, on
    the given uniforms or else the seed's stream."""
    states, digits = [], []
    t = Fraction(0)
    for x in philox_uniforms(seed, n) if u is None else u:
        states.append(t)
        digit = 0 if x < float(prob_digit0(system, t)) else 1
        digits.append(digit)
        t = transposed_step(system, t, digit)
    return digits, states


def _assert_float_path(system, n, seed):
    digits, states = _loop(system, n, seed)
    path = sample_path(system, n, seed)
    assert path.digits.dtype == np.uint8 and np.array_equal(path.digits, digits)
    assert path.states.dtype == np.float64
    assert path.states.tobytes() == states.tobytes()  # also tells -0.0 from 0.0


# A float affine pair with c1 = -0.0, and a pair whose c1 = -5e-324
# over b1 = 3 underflows to alpha = beta = 0.0 while its digit-1 step
# reaches -0.0.
NEG_ZERO_C1 = (MoebiusMatrix(1.0, 0.0, 0.0, 4.0), MoebiusMatrix(3.0, 1.0, -0.0, 4.0))
TINY_C1 = (MoebiusMatrix(1.0, 0.0, 0.0, 4.0), MoebiusMatrix(9.0, 3.0, -5e-324, 12.0))


class TestAffineClosedForm:
    @pytest.mark.parametrize("index", range(10))
    def test_lebesgue_float_equals_loop(self, index):
        system = force_approx(_lebesgue_systems()[index])
        for n in (1, 5000, 3 * _kernels.BLOCK + 5):
            _assert_float_path(system, n, seed=index + 1)

    @pytest.mark.parametrize("index", range(10))
    def test_lebesgue_exact_equals_fold(self, index):
        system = _lebesgue_systems()[index]
        for n in (1, 5000):
            digits, states = _fold(system, n, seed=index + 11)
            path = sample_path(system, n, seed=index + 11)
            assert path.digits.dtype == np.uint8 and path.digits.tolist() == digits
            assert all(type(t) is Fraction for t in path.states)
            assert path.states == states

    def test_negative_zero_c1_equals_loop(self):
        system = validate(*NEG_ZERO_C1)
        assert system.A1.entries[2] == 0 and str(system.A1.entries[2]) == "-0.0"
        for n in LENGTHS:
            _assert_float_path(system, n, seed=3)

    @pytest.mark.parametrize("exact", (True, False))
    def test_uniforms_at_the_threshold(self, exact, monkeypatch):
        # Uniforms on and next to P(0) itself: an off-by-one-ulp
        # probability or a strict/non-strict mix-up changes a digit.
        system = lebesgue_system(Fraction(3, 7))
        if not exact:
            system = force_approx(system)
        p0 = float(prob_digit0(system, system.zero()))
        near = [p0, np.nextafter(p0, 0.0), np.nextafter(p0, 1.0)]
        u = np.array(near * 3 + [0.0, 0.5, 0.9])
        monkeypatch.setattr(measure, "_uniforms", lambda seed, start, out: draw_from(u)(start, out))
        n = len(u)
        if exact:
            digits, _ = _fold(system, n, 0, u)
        else:
            digits, _ = _loop(system, n, 0, u)
            digits = digits.tolist()
        assert digits[:3] == [1, 0, 1]
        assert sample_path(system, n, 0).digits.tolist() == digits

    def test_affine_float_path_skips_the_loop(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("ran the step loop on an affine pair")

        monkeypatch.setattr(_kernels, "fill_path", no_loop)
        path = sample_path(force_approx(lebesgue_system(Fraction(1, 3))), 1000, seed=2)
        assert not path.states.any()

    def test_affine_flag(self, walk1, walk05):
        for p in (Fraction(1, 3), Fraction(1, 2)):
            system = lebesgue_system(p)
            assert system.affine and force_approx(system).affine
        assert validate(*NEG_ZERO_C1).affine
        for system in (walk1, force_approx(walk1), walk05, validate(*TINY_C1)):
            assert not system.affine

    def test_underflowed_interval_is_not_affine(self):
        system = validate(*TINY_C1)
        assert system.alpha == system.beta == 0.0
        digits, states = _loop(system, 2000, 5)
        assert np.signbit(states).any()  # the loop reaches -0.0
        _assert_float_path(system, 2000, seed=5)


class TestBlockedLoop:
    @pytest.mark.parametrize("draw", range(3))
    def test_equals_one_unblocked_call(self, draw):
        if draw == 0:
            system = walk_system(0.5)
        else:
            system = force_approx(random_valid_system(random.Random(draw)))
        for n in LENGTHS:
            digits, states = _loop(system, n, seed=draw + 40)
            u = philox_uniforms(draw + 40, n)
            got_digits = np.empty(n, dtype=np.uint8)
            got_states = np.empty(n, dtype=np.float64)
            _kernels.fill_path(_float_params(system), draw_from(u), got_digits, got_states)
            assert np.array_equal(got_digits, digits)
            assert got_states.tobytes() == states.tobytes()

    def test_returns_the_next_state(self):
        params = _float_params(walk_system(0.5))
        u = philox_uniforms(8, 100).tolist()
        d, s = bytearray(100), [0.0] * 100
        t = _kernels.path_arrays(*params, 0.0, u[:60], d, s)
        d2, s2 = bytearray(40), [0.0] * 40
        _kernels.path_arrays(*params, t, u[60:], d2, s2)
        whole_d, whole_s = bytearray(100), [0.0] * 100
        _kernels.path_arrays(*params, 0.0, u, whole_d, whole_s)
        assert s[:60] + s2 == whole_s and d[:60] + d2 == whole_d


class TestAffineEntropy:
    def test_exact_equals_fsum_over_states(self):
        # fsum(n copies of h) / n is not h itself for these p and n.
        fixed = [lebesgue_system(Fraction(*p)) for p in ((2, 5), (1, 6), (1, 8), (3, 7))]
        differs = False
        for system in fixed + _lebesgue_systems()[:3]:
            for n in (1, 5, 13, 49, 97, 4097, 12293, 100_000):
                path = sample_path(system, n, seed=n)
                # One term per distinct state (affine states are all 0), then
                # the same per-state list and fsum.
                term = {t: binary_entropy(prob_digit0(system, t)) for t in set(path.states)}
                terms = [term[t] for t in path.states]
                expect = fsum(terms) / n
                assert measure.entropy_rate_estimate(system, n, seed=n).hex() == expect.hex()
                differs |= expect != terms[0]
        assert differs

    def test_float_counted_blocks_equal_the_full_pass(self):
        # The estimate of each prefix of one float affine path, against
        # the fsum of its terms, which the summed _exact_total of its blocks
        # equals bit for bit.
        block = measure._ENTROPY_BLOCK
        lengths = (1, block - 1, block, block + 1, 10**6 + 3)
        for system in map(force_approx, _lebesgue_systems()):
            whole = sample_path(system, lengths[-1], seed=5)
            for n in lengths:
                path = measure.SamplePath(whole.digits[:n], whole.states[:n], whole.seed)
                got = measure.entropy_rate_estimate(system, n, seed=5)
                assert got.hex() == _full_pass_rate(system, path).hex(), (system.gamma, n)


def _full_pass_rate(system, path):
    """The entropy rate of a float path as the terms of every
    _ENTROPY_BLOCK of its states, all summed with one fsum."""
    block, gamma, n = measure._ENTROPY_BLOCK, system.gamma, len(path)
    terms = []
    for start in range(0, n, block):
        t = path.states[start : start + block]
        p0 = (t + 1.0) / (t + gamma)
        terms += (-(p0 * np.log(p0) + (1.0 - p0) * np.log(1.0 - p0))).tolist()
    return fsum(terms) / n


def _oracle_rate(system, path):
    """The entropy rate of a held path: the full pass for a float path,
    fsum of binary_entropy(prob_digit0) over the states for an exact one."""
    if not system.exact:
        return _full_pass_rate(system, path)
    return fsum(binary_entropy(prob_digit0(system, t)) for t in path.states) / len(path)


class TestFloatEntropy:
    def test_non_affine_rate_equals_the_full_pass(self):
        # The summed _exact_total of the blocks must equal fsum bit for bit
        # on states of the Python loop (n < LANES * BURN_IN), of the lanes
        # and of the tail past them.
        twins = [force_approx(random_valid_system(random.Random(s))) for s in (3, 8)]
        systems = [walk_system(0.5), walk_system(1.5), force_approx(walk_system(1)), *twins]
        block = measure._ENTROPY_BLOCK
        lengths = (1, block - 1, block + 1, 196609, 10**6 + 3)
        assert lengths[-2] > _kernels.LANES * _kernels.BURN_IN > lengths[-3]
        for system in systems:
            assert not system.exact and not system.affine
            for n in lengths:
                got = measure.entropy_rate_estimate(system, n, seed=11)
                assert got.hex() == _full_pass_rate(system, sample_path(system, n, 11)).hex(), n


def _held_report(system, n, seed):
    """The four report fields read off the whole path of sample_path."""
    path = sample_path(system, n, seed)
    states = path.states
    return (
        float((path.digits == 0).mean()),
        float(min(states)) if system.exact else float(states.min()),
        float(max(states)) if system.exact else float(states.max()),
        _oracle_rate(system, path),
    )


def _streamed_report(system, n, seed):
    report = measure._sample_report(system, n, seed)
    return (report.zeros / n, report.state_min, report.state_max, report.entropy_rate)


def _hex(fields):
    return [x.hex() for x in fields]


WINDOW_SYSTEMS = [
    walk_system(0.5),
    walk_system(1.5),
    force_approx(walk_system(1)),
    *(force_approx(random_valid_system(random.Random(s))) for s in (3, 8)),
]


class TestStreamedReport:
    """The report of a path run in windows against the same path held
    whole by sample_path, in float.hex: each window starts on the true end
    state of the window before, so the windows hold the bits of one path."""

    LANE_WINDOW = _kernels.LANES * _kernels.BURN_IN  # every full window runs the lanes
    LOOP_WINDOW = 5000  # every window runs the Python loop

    @pytest.mark.parametrize("window", (LANE_WINDOW, LOOP_WINDOW), ids=("lanes", "loop"))
    @pytest.mark.parametrize("index", range(len(WINDOW_SYSTEMS)))
    def test_equals_the_held_path(self, index, window, monkeypatch):
        monkeypatch.setattr(measure, "_WINDOW", window)
        system = WINDOW_SYSTEMS[index]
        assert not system.exact and not system.affine
        for n in (window - 1, window, window + 1, 3 * window + 5):
            want = _hex(_held_report(system, n, seed=index + 60))
            assert _hex(_streamed_report(system, n, seed=index + 60)) == want, n
            estimate = measure.entropy_rate_estimate(system, n, seed=index + 60)
            assert estimate.hex() == want[3]

    @pytest.mark.parametrize(
        "system",
        [
            lebesgue_system(Fraction(1, 4)),
            force_approx(lebesgue_system(Fraction(1, 3))),
            walk_system(1),
            validate(*NEG_ZERO_C1),
        ],
        ids=["lebesgue:1/4", "lebesgue:1/3 approx", "walk:1 exact", "c1 = -0.0"],
    )
    def test_affine_and_exact_equal_the_held_path(self, system):
        # Exact non-affine paths are not run in windows: short ones suffice.
        lengths = (1, 3000) if system.exact and not system.affine else (1, 3 * _DRAW_BLOCK + 5)
        for n in lengths:
            assert _hex(_streamed_report(system, n, seed=n)) == _hex(_held_report(system, n, n))

    def test_affine_report_builds_no_path(self, monkeypatch):
        def no_path(*args):
            raise AssertionError("built the path of an affine pair")

        monkeypatch.setattr(measure, "sample_path", no_path)
        monkeypatch.setattr(_kernels, "fill_path", no_path)
        for system in (lebesgue_system(Fraction(1, 4)), force_approx(lebesgue_system(Fraction(1, 3)))):
            assert measure._sample_report(system, 10**5, seed=1).state_max == 0.0

    def test_exact_report_holds_no_path(self, monkeypatch):
        # The report reads the exact steps one at a time, keeping a float
        # per state, and equals the report of the Fraction path held whole.
        want = {n: _hex(_held_report(walk_system(1), n, n)) for n in (1, 2000)}

        def no_path(*args):
            raise AssertionError("held the exact path")

        monkeypatch.setattr(measure, "sample_path", no_path)
        for n, fields in want.items():
            assert _hex(_streamed_report(walk_system(1), n, seed=n)) == fields

    def test_non_finite_fallback_in_a_later_window(self, monkeypatch):
        # A NaN written into the lanes of the second window sends that
        # window, and only it, to the Python loop from its true start state.
        window = self.LANE_WINDOW
        monkeypatch.setattr(measure, "_WINDOW", window)
        system, n = walk_system(0.5), 3 * window + 5
        want = _hex(_held_report(system, n, seed=4))
        sweep, python_path = _kernels._sweep, _kernels._python_path
        starts, runs = [], []

        def poisoned(params, start, d, s):
            ends = sweep(params, start, d, s)
            starts.append(start)
            if len(starts) == 2:
                s[7, 11] = np.nan
            return ends

        def recorded(params, t, u, *arrays):
            runs.append((t, len(u)))
            return python_path(params, t, u, *arrays)

        monkeypatch.setattr(_kernels, "_sweep", poisoned)
        monkeypatch.setattr(_kernels, "_python_path", recorded)
        assert _hex(_streamed_report(system, n, seed=4)) == want
        assert starts[1] != 0.0 and (starts[1], window) in runs
        assert [r for r in runs if r[1] == window] == [(starts[1], window)]

    @pytest.mark.parametrize("poison", (True, False), ids=("nan", "finite"))
    def test_one_pass_over_the_windows(self, poison, monkeypatch):
        # A NaN state written into the second window after its fill makes
        # the rate and the state range NaN; either way every window is
        # filled once and its digits are counted.
        window = self.LANE_WINDOW
        monkeypatch.setattr(measure, "_WINDOW", window)
        system, n = walk_system(0.5), 3 * window + 5
        held = sample_path(system, n, seed=6)
        fill_path, fills = _kernels.fill_path, []

        def wrapped(params, draw, digits, states, t=0.0):
            end = fill_path(params, draw, digits, states, t)
            fills.append(len(digits))
            if poison and len(fills) == 2:
                states[11] = np.nan
            return end

        monkeypatch.setattr(_kernels, "fill_path", wrapped)
        report = measure._sample_report(system, n, seed=6)
        assert fills == [window] * 3 + [5]
        assert len(fills) == -(-n // measure._WINDOW)
        assert report.zeros == n - int(np.count_nonzero(held.digits))
        fields = (report.state_min, report.state_max, report.entropy_rate)
        if poison:
            assert all(np.isnan(fields))
        else:
            want = _hex((held.states.min(), held.states.max(), _oracle_rate(system, held)))
            assert _hex(fields) == want


def _fraction_report(system, n, seed):
    """The report of the Fraction loop (_exact_steps) on numpy's draw of
    the seed's uniforms: the oracle of the interval report."""
    steps = list(measure._exact_steps(system, philox_uniforms(seed, n).tolist()))
    states = [float(t) for t, _, _ in steps]
    rate = fsum(binary_entropy(p0) for _, p0, _ in steps) / n
    return (sum(d == 0 for *_, d in steps) / n, min(states), max(states), rate)


def _interval_systems():
    rng = random.Random(34)
    return [random_valid_system(rng, scaled=bool(i % 2)) for i in range(6)]


class TestIntervalReport:
    """Exact non-affine reports step integer intervals [lo, hi] / 2^P that
    hold the states; the Fraction loop is the oracle, in float.hex."""

    @pytest.mark.parametrize(
        "system, lengths",
        [
            (walk_system(1), (1, 2, 3, 5, 3000, 20_000)),
            (walk_system(Fraction(3, 7)), (1, 2, 3, 5, 3000)),
            *[(system, (1, 7, 1000)) for system in _interval_systems()],
        ],
        ids=["walk:1", "walk:3/7", *(f"random{i}" for i in range(6))],
    )
    def test_equals_the_fraction_loop(self, system, lengths):
        for n in lengths:
            assert _hex(_streamed_report(system, n, n + 11)) == _hex(_fraction_report(system, n, n + 11)), n

    def test_walk_3_7_at_the_cap(self, capsys):
        # Its Fraction loop took about 40 s: this is that loop's report.
        argv = ["sample", "--preset", "walk:3/7", "-n", "20000", "--seed", "5"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["digit0_frequency"], doc["state_min"], doc["state_max"]) == (0.8213, -0.4999229190621068, 0.0)
        assert doc["entropy_rate_estimate"] == 0.47052605915960255

    def _runs(self, monkeypatch):
        runs, run = [], measure._interval_report

        def recorded(system, u, bits):
            report = run(system, u, bits)
            runs.append((bits, report is not None))
            return report

        monkeypatch.setattr(measure, "_interval_report", recorded)
        return runs

    def test_undecided_step_runs_again(self, monkeypatch):
        # At 4 bits the first state intervals already straddle P(0)'s
        # roundings: each undecided run is read again at twice the bits.
        monkeypatch.setattr(measure, "_STATE_BITS", 4)
        runs = self._runs(monkeypatch)
        for system in (walk_system(1), walk_system(Fraction(3, 7)), _interval_systems()[0]):
            runs.clear()
            assert _hex(_streamed_report(system, 2000, 3)) == _hex(_fraction_report(system, 2000, 3))
            assert runs[0] == (4, False) and runs[-1][1], runs
            assert [bits for bits, _ in runs] == [4 << k for k in range(len(runs))]

    @pytest.mark.parametrize("preset, n, seed", [("walk:1", 30, 43), ("walk:3/7", 30, 39), ("walk:3/7", 10, 65)])
    def test_p0_is_decided_at_both_ends(self, preset, n, seed, monkeypatch):
        # At 56 bits these runs decide their state range, but at one step
        # the rounded P(0) at lo is not that at hi: read off lo alone, it
        # changes the entropy rate in its last bit.
        monkeypatch.setattr(measure, "_STATE_BITS", 56)
        runs = self._runs(monkeypatch)
        system = walk_system(Fraction(preset[5:]))
        assert _hex(_streamed_report(system, n, seed)) == _hex(_fraction_report(system, n, seed))
        assert runs == [(56, False), (112, True)]

    def test_undecided_past_the_most_bits_reads_the_fraction_loop(self, monkeypatch):
        monkeypatch.setattr(measure, "_STATE_BITS", 4)
        monkeypatch.setattr(measure, "_MAX_STATE_BITS", 8)
        runs = self._runs(monkeypatch)
        system = walk_system(Fraction(3, 7))
        assert _hex(_streamed_report(system, 2000, 3)) == _hex(_fraction_report(system, 2000, 3))
        assert runs == [(4, False), (8, False)]


class TestStepCap:
    def test_refused_before_drawing(self, monkeypatch):
        def no_draw(seed, start, out):
            raise AssertionError("drew uniforms for a refused path")

        monkeypatch.setattr(measure, "_uniforms", no_draw)
        for system in (walk_system(0.5), lebesgue_system(Fraction(1, 4))):
            for n in (measure._MAX_STEPS + 1, 10**12):
                with pytest.raises(DomainError, match="smaller n"):
                    sample_path(system, n)
                with pytest.raises(DomainError, match="smaller n"):
                    measure.entropy_rate_estimate(system, n)

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(measure, "_MAX_STEPS", 100)
        system = walk_system(0.5)
        assert len(sample_path(system, 100)) == 100
        with pytest.raises(DomainError, match="n = 101 exceeds 100"):
            sample_path(system, 101)
        with pytest.raises(DomainError, match="n = 101 exceeds 100"):
            measure.entropy_rate_estimate(system, 101)

    def test_cli_exit_1(self, capsys, monkeypatch):
        def no_draw(seed, start, out):
            raise AssertionError("drew uniforms for a refused path")

        monkeypatch.setattr(measure, "_uniforms", no_draw)
        code = main(["sample", "--preset", "walk:0.5", "-n", "1000000000000"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: DomainError: n = 1000000000000 exceeds 33554432")
        assert "smaller n" in err and err.count("\n") == 1

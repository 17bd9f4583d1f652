import random
import struct
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from derham_lft import (
    DomainError,
    digit_probability,
    dimension_bounds,
    dyadic_enclosure,
    entropy_rate_estimate,
    force_approx,
    interval_measure,
    lebesgue_system,
    mass_from_word,
    prob_digit0,
    ratio_state,
    sample_path,
    transpose,
    apply_mobius,
    walk_system,
    walk_tree,
    binary_entropy,
    word_matrix,
)
from derham_lft import measure
from helpers import philox_uniforms, random_valid_system, transposed_step


class TestIntervalMeasure:
    def test_whole_interval(self, leb13, walk1):
        assert interval_measure(leb13, ()) == 1
        assert interval_measure(walk1, ()) == 1

    def test_lebesgue_third_address_01(self, leb13):
        # Oracle: digits are i.i.d. with P(0) = 1/3, so the mass of the
        # interval "digits = (0, 1)" is p*(1-p) = 2/9.
        p = Fraction(1, 3)
        assert interval_measure(leb13, (0, 1)) == p * (1 - p) == Fraction(2, 9)

    def test_equals_enclosure_width(self, leb13, walk1):
        rng = random.Random(2)
        for system in (leb13, walk1):
            for _ in range(25):
                bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 10)))
                assert interval_measure(system, bits) == dyadic_enclosure(system, bits).width

    def test_leaf_masses_sum_to_one(self, walk1):
        total = sum(n.mass for n in walk_tree(walk1, 8) if len(n.bits) == 8)
        assert total == 1


class TestRatioState:
    def test_empty_address(self, leb13):
        assert ratio_state(leb13, ()) == 0

    def test_lebesgue_states_all_zero(self, leb13):
        rng = random.Random(4)
        for _ in range(20):
            bits = tuple(rng.randint(0, 1) for _ in range(12))
            assert ratio_state(leb13, bits) == 0

    def test_walk_states_confined(self):
        system = walk_system(0.5)
        lo = float(system.alpha) - 1e-10
        hi = float(system.beta) + 1e-10
        for node in walk_tree(system, 12):
            assert lo <= node.state <= hi

    def test_matches_word_bottom_row(self, walk1):
        rng = random.Random(9)
        for _ in range(30):
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 12)))
            node = None
            for n in walk_tree(walk1, len(bits)):
                if n.bits == bits:
                    node = n
                    break
            _, _, r, s = node.word.entries
            assert node.state == r / s == ratio_state(walk1, bits)

    def test_matches_transposed_word_orbit(self, walk1):
        # r_n/s_n equals the reversed transposed word applied to 0.
        rng = random.Random(10)
        for _ in range(20):
            bits = tuple(rng.randint(0, 1) for _ in range(8))
            w = None
            for b in bits:
                t = transpose(walk1.matrix(b))
                w = t if w is None else t @ w
            assert ratio_state(walk1, bits) == apply_mobius(w, 0)


class TestDigitProbability:
    def test_lebesgue_third(self, leb13):
        assert digit_probability(leb13, 0, 0) == Fraction(1, 3)
        assert digit_probability(leb13, 0, 1) == Fraction(2, 3)

    def test_balanced_state_when_inside(self):
        # gamma = 2 puts the balanced state at 0, inside every [alpha, beta].
        from derham_lft import MoebiusMatrix, validate

        system = validate(
            MoebiusMatrix(1, 0, 0, 2), MoebiusMatrix(Fraction(1, 2), Fraction(1, 2), 0, 1)
        )
        assert system.balanced_state == 0
        assert digit_probability(system, system.balanced_state, 0) == Fraction(1, 2)

    def test_outside_interval_rejected(self, leb13):
        with pytest.raises(DomainError):
            digit_probability(leb13, Fraction(1, 5), 0)
        with pytest.raises(DomainError):
            digit_probability(leb13, 1e-6, 0)

    def test_chain_rule_exhaustive(self, walk1):
        masses = {}
        states = {}
        for node in walk_tree(walk1, 9):
            masses[node.bits] = node.mass
            states[node.bits] = node.state
        for bits, mass in masses.items():
            if len(bits) == 9:
                continue
            for digit in (0, 1):
                child = bits + (digit,)
                assert masses[child] == mass * digit_probability(walk1, states[bits], digit)

    def test_additivity_exhaustive(self, leb13):
        masses = {node.bits: node.mass for node in walk_tree(leb13, 9)}
        for bits, mass in masses.items():
            if len(bits) < 9:
                assert masses[bits + (0,)] + masses[bits + (1,)] == mass


class TestSamplePath:
    def test_deterministic(self, walk05):
        p1 = sample_path(walk05, 5000, seed=42)
        p2 = sample_path(walk05, 5000, seed=42)
        assert np.array_equal(p1.digits, p2.digits)
        assert np.array_equal(p1.states, p2.states)

    def test_different_seeds_differ(self, walk05):
        p1 = sample_path(walk05, 5000, seed=1)
        p2 = sample_path(walk05, 5000, seed=2)
        assert not np.array_equal(p1.digits, p2.digits)

    def test_digit_frequency_lebesgue_third(self, leb13):
        path = sample_path(leb13, 100_000, seed=7)
        freq0 = float(np.mean(path.digits == 0))
        assert abs(freq0 - 1 / 3) < 0.01

    def test_states_confined_float(self, walk05):
        path = sample_path(walk05, 1_000_000, seed=11)
        assert path.states.min() >= float(walk05.alpha) - 1e-10
        assert path.states.max() <= float(walk05.beta) + 1e-10

    def test_states_exact_fractions(self, walk1):
        path = sample_path(walk1, 500, seed=3)
        assert all(isinstance(t, Fraction) for t in path.states)
        assert all(walk1.alpha <= t <= walk1.beta for t in path.states)
        assert path.states[0] == 0

    def test_negative_seed_refused(self, leb14):
        for draw in (sample_path, entropy_rate_estimate):
            with pytest.raises(DomainError, match="seed must be >= 0"):
                draw(leb14, 10, seed=-1)

    def test_long_exact_growing_path_refused_before_drawing(self, walk1, leb14, monkeypatch):
        def no_draw(seed, start, out):
            raise AssertionError("drew uniforms for a refused path")

        with monkeypatch.context() as patch:
            patch.setattr(measure, "_uniforms", no_draw)
            for n in (measure._MAX_EXACT_GROWING_STEPS + 1, 100_000):
                with pytest.raises(DomainError, match="--mode approx"):
                    sample_path(walk1, n)
        # The cap itself is allowed; float walk:1 and exact lebesgue
        # (alpha = beta, states stay at 0) are not capped.
        monkeypatch.setattr(measure, "_MAX_EXACT_GROWING_STEPS", 100)
        assert len(sample_path(walk1, 100)) == 100
        with pytest.raises(DomainError):
            sample_path(walk1, 101)
        assert len(sample_path(force_approx(walk1), 101)) == 101
        assert len(sample_path(leb14, 100_000, seed=7)) == 100_000

    def test_state_recursion(self, walk05):
        path = sample_path(walk05, 2000, seed=5)
        for i in range(0, 1999, 97):
            expect = transposed_step(walk05, path.states[i], int(path.digits[i]))
            assert path.states[i + 1] == expect


class TestEntropyRate:
    def test_constant_summand_when_degenerate(self, leb13, leb14):
        from derham_lft import force_approx

        # alpha = beta = 0 pins every state at 0, so every summand equals
        # the entropy of the coin; the average can only differ by summation
        # rounding.  The long float path would drift past the bound under
        # a naive running sum.
        for system, p, n, seed in (
            (leb14, Fraction(1, 4), 20_000, 13),
            (force_approx(leb13), Fraction(1, 3), 1_000_000, 7),
        ):
            estimate = entropy_rate_estimate(system, n, seed=seed)
            assert abs(estimate - binary_entropy(p)) <= 1e-13
        target = binary_entropy(Fraction(1, 4))
        path = sample_path(leb14, 200, seed=13)
        for t in path.states:
            assert binary_entropy(prob_digit0(leb14, t)) == target

    def test_within_entropy_extrema(self, walk05):
        bounds = dimension_bounds(walk05)
        estimate = entropy_rate_estimate(walk05, 1_000_000, seed=99)
        assert bounds.entropy_min - 1e-12 <= estimate <= bounds.entropy_max + 1e-12

    def test_against_neg_log_mass_oracle(self, walk05):
        # The average of -log(prob of the digit actually drawn) along the
        # same path is the empirical mass-decay rate; the two estimators
        # share a limit, so at 10^3 steps they agree loosely.
        n = 1000
        path = sample_path(walk05, n, seed=21)
        gamma = float(walk05.gamma)
        states = np.asarray(path.states)
        p0 = (states + 1.0) / (states + gamma)
        chosen = np.where(path.digits == 0, p0, 1.0 - p0)
        neg_log_rate = float(-np.log(chosen).mean())
        entropy_rate = float(
            -(p0 * np.log(p0) + (1 - p0) * np.log(1 - p0)).mean()
        )
        assert abs(entropy_rate - entropy_rate_estimate(walk05, n, seed=21)) < 1e-12
        assert abs(entropy_rate - neg_log_rate) < 0.05

    def test_exact_mode_matches_float_mode(self, walk1):
        from derham_lft import force_approx

        n = 4000
        exact_est = entropy_rate_estimate(walk1, n, seed=17)
        approx_est = entropy_rate_estimate(force_approx(walk1), n, seed=17)
        assert abs(exact_est - approx_est) < 1e-9


class TestRandomSystems:
    def test_chain_rule_and_containment(self):
        rng = random.Random(314)
        for _ in range(12):
            system = random_valid_system(rng)
            masses = {}
            states = {}
            for node in walk_tree(system, 6):
                masses[node.bits] = node.mass
                states[node.bits] = node.state
                assert system.alpha <= node.state <= system.beta
                assert 0 < node.mass <= 1
            for bits, mass in masses.items():
                if len(bits) == 6:
                    continue
                assert masses[bits + (0,)] + masses[bits + (1,)] == mass
                ratio = masses[bits + (0,)] / mass
                assert ratio == prob_digit0(system, states[bits])


def _float_bits(x):
    return struct.pack("<d", x)


def _exact_systems():
    rng = random.Random(2718)
    systems = [lebesgue_system(Fraction(1, 4)), walk_system(1)]
    systems += [random_valid_system(rng, scaled=bool(i % 2)) for i in range(20)]
    return systems


class TestExactBitIdentity:
    """Exact sampling, ratio states and masses against Fraction folds of
    the public single-step primitives; float states and masses against
    the float word."""

    @pytest.mark.parametrize("index", range(22))
    def test_sample_path_equals_fraction_fold(self, index):
        system = _exact_systems()[index]
        n, seed = (3000, 7) if index < 2 else (400, 100 + index)
        u = philox_uniforms(seed, n)
        states, digits = [], []
        t = Fraction(0)
        for x in u:
            states.append(t)
            digit = 0 if x < float(prob_digit0(system, t)) else 1
            digits.append(digit)
            t = transposed_step(system, t, digit)
        path = sample_path(system, n, seed)
        assert path.digits.dtype == np.uint8 and path.digits.tolist() == digits
        assert all(type(t) is Fraction for t in path.states)
        assert path.states == states
        expect = fsum(binary_entropy(prob_digit0(system, t)) for t in states) / n
        assert _float_bits(entropy_rate_estimate(system, n, seed)) == _float_bits(expect)

    def test_ratio_state_and_mass_equal_the_folds(self):
        rng = random.Random(1618)
        for system in _exact_systems()[:8]:
            for _ in range(15):
                bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 40)))
                t = Fraction(0)
                for b in bits:
                    t = transposed_step(system, t, b)
                state = ratio_state(system, bits)
                assert type(state) is Fraction and state == t
                assert interval_measure(system, bits) == mass_from_word(word_matrix(system, bits))
                approx = force_approx(system)
                _, _, c, d = word_matrix(approx, bits).entries
                assert _float_bits(ratio_state(approx, bits)) == _float_bits(c / d)
                mass = mass_from_word(word_matrix(approx, bits))
                assert _float_bits(interval_measure(approx, bits)) == _float_bits(mass)


def _float_systems():
    rng = random.Random(577)
    systems = [walk_system(0.5), walk_system(1.5)]
    systems += [force_approx(walk_system(1)), force_approx(walk_system(Fraction(3, 7)))]
    return systems + [force_approx(random_valid_system(rng, scaled=bool(i % 2))) for i in range(4)]


class TestStateReader:
    """ratio_state and walk_tree read every state off the address word."""

    @pytest.mark.parametrize("index", range(8))
    def test_float_states_are_the_word_ratio(self, index):
        # Addresses of up to 40 digits pass the rescaled 16th and 32nd products.
        system = _float_systems()[index]
        rng = random.Random(index)
        for node in walk_tree(system, 9):
            word = word_matrix(system, node.bits)
            assert node.word == word  # formed on read
            _, _, c, d = word.entries
            assert _float_bits(node.state) == _float_bits(c / d)
        for _ in range(30):
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 40)))
            _, _, c, d = word_matrix(system, bits).entries
            assert _float_bits(ratio_state(system, bits)) == _float_bits(c / d)

    @pytest.mark.parametrize("index", range(8))
    def test_float_states_near_the_exact_fold(self, index):
        # The exact-arithmetic orbit of 0 under the transposed maps with
        # the float entries as rationals: the float word's r/s stays within
        # 1e-13 of it (these trees reach 7.9e-15).
        system = _float_systems()[index]
        exact = [tuple(map(Fraction, system.matrix(i).entries)) for i in (0, 1)]
        fold = {(): Fraction(0)}
        for node in walk_tree(system, 10):
            if node.bits:
                a, b, c, d = exact[node.bits[-1]]
                t = fold[node.bits[:-1]]
                fold[node.bits] = (a * t + c) / (b * t + d)
            assert abs(Fraction(node.state) - fold[node.bits]) <= 1e-13
        for bits in ((0,) * 40, (1,) * 40, (0, 1) * 20):
            t = Fraction(0)
            for digit in bits:
                a, b, c, d = exact[digit]
                t = (a * t + c) / (b * t + d)
            assert abs(Fraction(ratio_state(system, bits)) - t) <= 1e-13

    def test_walk_forms_no_literal_word(self, walk1, monkeypatch):
        from derham_lft._words import WordBasis

        def no_literal(*args):
            raise AssertionError("walk_tree formed a literal word")

        monkeypatch.setattr(WordBasis, "literal", no_literal)
        for system in (walk1, walk_system(0.5)):
            assert sum(1 for _ in walk_tree(system, 8)) == 2**9 - 1

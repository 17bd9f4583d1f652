import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from derham_lft import (
    DomainError,
    MoebiusMatrix,
    ValidationError,
    apply_mobius,
    binary_entropy,
    digit_probability,
    digits_of,
    dyadic_digits,
    evaluate,
    force_approx,
    functional_equation_residual,
    interval_measure,
    inverse_evaluate,
    prob_digit0,
    prob_digit1,
    transpose,
    transpose_fixed_points,
    validate,
    walk_tree,
)
from helpers import random_valid_system


class TestValidate:
    def test_lebesgue_third(self, leb13):
        assert leb13.exact
        assert leb13.alpha == 0 == leb13.beta
        assert leb13.gamma == 3

    def test_walk_one_matrices(self, walk1):
        assert walk1.A0 == MoebiusMatrix(Fraction(1, 2), 0, Fraction(-1, 4), 1)
        assert walk1.A1 == MoebiusMatrix(0, Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4))
        assert walk1.gamma == Fraction(3, 2)
        assert walk1.alpha == Fraction(-1, 2) and walk1.beta == 0

    def test_identity_pair_rejected(self):
        ident = MoebiusMatrix(1, 0, 0, 1)
        with pytest.raises(ValidationError) as err:
            validate(ident, ident)
        assert "A1" in err.value.conditions
        assert any("< 1" in detail for _, detail in err.value.violations)

    @pytest.mark.parametrize(
        "a0, a1, detail",
        [
            (("1/2", "1/10", 0, 1), ("1/2", "1/2", 0, 1), "b0 = 1/10 but b0 = 0 is required"),
            ((1, 0, -1, 1), ("1/2", "1/2", 0, 1), "c0 + d0 = 0 makes A0(1) undefined"),
            (("1/3", 0, 0, 1), (1, 1, 1, 0), "d1 = 0 makes A1(0) undefined"),
            (("1/3", 0, 0, 1), (1, "1/3", -1, 1), "c1 + d1 = 0 makes A1(1) undefined"),
            (("1/3", 0, 0, 1), ("1/3", "1/3", 0, 1), "A1(1) = 2/3 but A1(1) = 1 is required"),
            (("-1/3", 0, 0, 1), ("4/3", "-1/3", 0, 1), "A0(1) = -1/3 violates '> 0'"),
        ],
        ids=["b0", "c0+d0", "d1", "c1+d1", "A1(1)", "A0(1)"],
    )
    def test_boundary_condition_rejected(self, a0, a1, detail):
        # Each pair fails condition A1 first, with the named detail.
        with pytest.raises(ValidationError) as err:
            validate(*(MoebiusMatrix(*map(Fraction, m)) for m in (a0, a1)))
        assert err.value.violations[0] == ("A1", detail)
        assert str(err.value).startswith(f"A1: {detail}")

    def test_negative_determinant_rejected(self):
        # Boundary values match the lebesgue:1/3 left matrix, but det A1 < 0.
        a0 = MoebiusMatrix(Fraction(1, 3), 0, 0, 1)
        a1 = MoebiusMatrix(-2, 1, -4, 3)
        with pytest.raises(ValidationError) as err:
            validate(a0, a1)
        assert "A2" in err.value.conditions

    def test_contraction_margin_rejected(self):
        # det A0 = 4 equals min(d0, c0+d0)^2 = 4: the strict inequality fails.
        a0 = MoebiusMatrix(2, 0, 1, 2)
        a1 = MoebiusMatrix(Fraction(1, 3), Fraction(2, 3), 0, 1)
        with pytest.raises(ValidationError) as err:
            validate(a0, a1)
        assert "A3" in err.value.conditions

    def test_nan_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate(
                MoebiusMatrix(float("nan"), 0.0, 0.0, 1.0),
                MoebiusMatrix(0.5, 0.5, 0.0, 1.0),
            )
        assert "finite" in err.value.conditions

    def test_matrices_stored_unnormalized(self):
        a0 = MoebiusMatrix(2, 0, 0, 6)
        a1 = MoebiusMatrix(4, 2, 0, 6)
        system = validate(a0, a1)
        assert system.A0 == a0 and system.A1 == a1
        assert system.gamma == 3

    def test_float_mode_flagged(self):
        system = validate(
            MoebiusMatrix(1 / 3, 0.0, 0.0, 1.0),
            MoebiusMatrix(2 / 3, 1 / 3, 0.0, 1.0),
        )
        assert system.mode == "approx" and not system.exact

    def test_mixed_pair_stored_in_floats(self):
        # One float entry puts the whole pair in floats: the system equals,
        # field by field and bit for bit, the one built from all-float input.
        rng = random.Random(41)
        for i in range(6):
            exact = random_valid_system(rng, scaled=bool(i % 2))
            twin = force_approx(exact)
            for mixed in (validate(exact.A0, twin.A1), validate(twin.A0, exact.A1)):
                assert mixed.mode == "approx"
                entries = mixed.A0.entries + mixed.A1.entries
                assert all(type(e) is float for e in entries)
                for name in ("A0", "A1", "alpha", "beta", "gamma", "mode"):
                    got, want = getattr(mixed, name), getattr(twin, name)
                    assert repr(got) == repr(want), name


class TestDomainErrors:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda s: evaluate(s, 1.5, 1e-9), "x = 1.5 outside [0, 1]", id="evaluate"),
            pytest.param(lambda s: inverse_evaluate(s, -0.25, 1e-9), "y = -0.25 outside [0, 1]",
                         id="inverse_evaluate"),
            pytest.param(lambda s: functional_equation_residual(s, Fraction(3, 2)),
                         "x = 3/2 outside [0, 1]", id="residual"),
            pytest.param(lambda s: digits_of(1, 4), "x = 1 outside [0, 1)", id="digits_of"),
            pytest.param(lambda s: dyadic_digits(Fraction(-1, 2)), "x = -1/2 outside [0, 1)",
                         id="dyadic_digits"),
            pytest.param(lambda s: walk_tree(s, -1), "depth must be >= 0", id="walk_tree"),
            pytest.param(lambda s: digit_probability(s, 0, 2), "digit must be 0 or 1, got 2",
                         id="digit_probability"),
            pytest.param(lambda s: interval_measure(s, (0, 2)),
                         "address digits must be 0 or 1, got (0, 2)", id="check_bits"),
            pytest.param(lambda s: s.matrix(2), "digit must be 0 or 1, got 2", id="matrix"),
        ],
    )
    def test_refused_with_message(self, walk1, call, message):
        with pytest.raises(DomainError) as err:
            call(walk1)
        assert str(err.value) == message


class TestProbabilities:
    def test_balanced_state_is_fair(self, leb13):
        assert prob_digit0(leb13, leb13.gamma - 2) == Fraction(1, 2)

    def test_lebesgue_third_at_zero(self, leb13):
        assert prob_digit0(leb13, 0) == Fraction(1, 3)

    def test_walk_one_at_left_endpoint(self, walk1):
        assert prob_digit0(walk1, Fraction(-1, 2)) == Fraction(1, 2)

    def test_domain_error(self, leb13):
        with pytest.raises(DomainError):
            prob_digit0(leb13, -3)
        with pytest.raises(DomainError):
            prob_digit0(leb13, Fraction(-7, 2))

    def test_at_minus_one(self, walk1):
        assert prob_digit0(walk1, -1) == 0
        assert prob_digit1(walk1, -1) == 1


class TestEntropy:
    def test_maximum(self):
        assert binary_entropy(Fraction(1, 2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_boundary_convention(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_quarter(self):
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.562335, abs=1e-6)

    def test_domain(self):
        for bad in (-0.1, 1.5, Fraction(-1, 9)):
            with pytest.raises(DomainError):
                binary_entropy(bad)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=64))
    def test_symmetric_and_bounded(self, p):
        s = binary_entropy(p)
        assert 0.0 <= s <= math.log(2) + 1e-15
        assert s == pytest.approx(binary_entropy(1 - p), abs=1e-12)


class TestFixedPoints:
    def test_lebesgue_third(self, leb13):
        assert transpose_fixed_points(leb13) == (0, (-1, 0))

    def test_walk_one(self, walk1):
        fp0, pair = transpose_fixed_points(walk1)
        assert fp0 == Fraction(-1, 2)
        assert pair == (-1, Fraction(-1, 2))

    def test_back_substitution_is_exact(self, leb13, walk1):
        for system in (leb13, walk1):
            fp0, (_, fp1) = transpose_fixed_points(system)
            assert apply_mobius(transpose(system.A0), fp0) == fp0
            assert apply_mobius(transpose(system.A1), fp1) == fp1


class TestDerivedInvariants:
    def test_random_systems_constants(self):
        rng = random.Random(20240817)
        for _ in range(150):
            system = random_valid_system(rng)
            assert system.alpha <= 0 <= system.beta
            assert system.alpha > -1
            assert system.gamma > 1
            # digit-0 probability increasing with range inside (0, 1)
            assert 0 < prob_digit0(system, system.alpha)
            assert prob_digit0(system, system.beta) < 1
            assert prob_digit0(system, system.alpha) <= prob_digit0(system, system.beta)

    def test_scale_invariance_of_constants(self):
        from derham_lft import value_at_dyadic

        rng = random.Random(5150)
        for _ in range(40):
            system = random_valid_system(rng)
            k = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            m = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            rescaled = validate(system.A0.scaled(k), system.A1.scaled(m))
            assert rescaled.alpha == system.alpha
            assert rescaled.beta == system.beta
            assert rescaled.gamma == system.gamma
            for x in (Fraction(1, 4), Fraction(5, 8), Fraction(13, 16)):
                assert value_at_dyadic(rescaled, x) == value_at_dyadic(system, x)

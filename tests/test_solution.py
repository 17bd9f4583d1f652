import math
import random
from fractions import Fraction

import pytest

from derham_lft import (
    DomainError,
    MoebiusMatrix,
    NonConvergenceError,
    NotAbsolutelyContinuousError,
    ac_density,
    address_interval,
    closed_form_solution,
    digits_of,
    dyadic_digits,
    dyadic_enclosure,
    dyadic_value_table,
    evaluate,
    force_approx,
    functional_equation_residual,
    inverse_evaluate,
    lebesgue_system,
    normal_form,
    validate,
    value_at_dyadic,
    walk_system,
)
from helpers import coin_distribution, iterate_functional_equation, random_valid_system


def closed_form_walk1(x):
    # u = 1 solution: f(x) = 2x/(x+1); verified against the closed form below.
    return 2 * x / (x + 1)


class TestAddresses:
    def test_interval(self):
        lo, hi = address_interval((0, 1))
        assert (lo, hi) == (Fraction(1, 4), Fraction(1, 2))
        assert address_interval(()) == (0, 1)

    def test_digit_extraction_matches_floor_formula(self):
        for x in (Fraction(3, 10), Fraction(1, 3), 0.7173):
            got = digits_of(x, 12)
            want = tuple(
                math.floor(2**n * Fraction(x)) - 2 * math.floor(2 ** (n - 1) * Fraction(x))
                for n in range(1, 13)
            )
            assert got == want

    def test_terminating_expansion(self):
        assert dyadic_digits(Fraction(3, 8)) == (0, 1, 1)
        assert dyadic_digits(Fraction(0)) == ()
        with pytest.raises(DomainError):
            dyadic_digits(Fraction(1, 3))


class TestEnclosures:
    def test_lebesgue_third_address_01(self, leb13):
        enc = dyadic_enclosure(leb13, (0, 1))
        # Oracle: biased-coin distribution at 1/4 and 1/2.
        assert enc.lower == coin_distribution(Fraction(1, 3), 1, 2) == Fraction(1, 9)
        assert enc.upper == coin_distribution(Fraction(1, 3), 2, 2) == Fraction(1, 3)

    def test_empty_address(self, leb13, walk1):
        for system in (leb13, walk1):
            enc = dyadic_enclosure(system, ())
            assert (enc.lower, enc.upper) == (0, 1)

    def test_single_digit_one(self, walk1):
        enc = dyadic_enclosure(walk1, (1,))
        b1, d1 = walk1.A1.b, walk1.A1.d
        assert enc.lower == b1 / d1 == Fraction(2, 3)
        assert enc.upper == 1

    def test_endpoint_consistency_exhaustive(self, leb13, walk1):
        for system in (leb13, walk1):
            for depth in range(1, 9):
                values = dyadic_value_table(system, depth)
                encs = [
                    dyadic_enclosure(system, digits_of(Fraction(j, 1 << depth), depth))
                    for j in range(1 << depth)
                ]
                for j, enc in enumerate(encs):
                    assert enc.lower == values[j]
                    assert enc.upper == values[j + 1]
                    assert enc.lower < enc.upper
                assert values == sorted(values)

    def test_table_depth_above_cap_refused_before_sweeping(self, walk1, monkeypatch):
        from derham_lft._words import WordBasis

        def no_sweep(self, depth):
            raise AssertionError("swept a level before checking the depth cap")

        monkeypatch.setattr(WordBasis, "table", no_sweep)
        with pytest.raises(DomainError, match="depth = 23 exceeds the cap of 22"):
            dyadic_value_table(force_approx(walk1), 23)
        # An exact table past both caps names the exact one, and the fix.
        with pytest.raises(DomainError, match="depth = 23 exceeds 20, .*--mode approx"):
            dyadic_value_table(walk1, 23)

    def test_exact_table_above_exact_cap_refused_before_sweeping(self, walk1, monkeypatch):
        from derham_lft import solution
        from derham_lft._words import WordBasis

        class Swept(Exception):
            pass

        def no_sweep(self, depth):
            raise Swept(depth)

        assert solution._MAX_EXACT_TABLE_DEPTH == 20
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        for cap in (20, 5):
            monkeypatch.setattr(solution, "_MAX_EXACT_TABLE_DEPTH", cap)
            with pytest.raises(DomainError, match=f"depth = {cap + 1} exceeds {cap}, .*--mode approx"):
                dyadic_value_table(walk1, cap + 1)
            with pytest.raises(Swept):  # at the cap: checked, then swept
                dyadic_value_table(walk1, cap)
        # Float tables keep the sweep cap alone: depth 22 reaches the sweep.
        with pytest.raises(Swept):
            dyadic_value_table(force_approx(walk1), 22)
        with pytest.raises(Swept):
            dyadic_value_table(walk_system(0.5), 22)

    def test_width_contracts_to_depth_64(self):
        rng = random.Random(11)
        for system in (
            lebesgue_system(Fraction(1, 3)),
            lebesgue_system(Fraction(2, 3)),
            lebesgue_system(Fraction(1, 2)),
            walk_system(1),
            walk_system(0.5),
        ):
            addresses = [tuple(rng.randint(0, 1) for _ in range(64)) for _ in range(40)]
            addresses += [(0,) * 64, (1,) * 64, (0, 1) * 32]
            for bits in addresses:
                enc = dyadic_enclosure(system, bits)
                assert enc.width < 1e-6


class TestEvaluate:
    def test_endpoints(self, leb13):
        assert evaluate(leb13, 0, 1e-3) == 0
        assert evaluate(leb13, 1, 1e-3) == 1

    def test_walk1_half_exact(self, walk1):
        assert evaluate(walk1, Fraction(1, 2), 0) == Fraction(2, 3)
        assert abs(evaluate(walk1, 0.5, 1e-12) - closed_form_walk1(0.5)) <= 1e-12

    def test_lebesgue_dyadic_terminates_with_zero_tol(self, leb13):
        assert evaluate(leb13, Fraction(1, 2), 0) == Fraction(1, 3)

    def test_against_closed_form_walk1(self, walk1):
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            got = evaluate(walk1, x, 1e-10)
            assert abs(got - closed_form_walk1(Fraction(x))) <= 1e-10

    def test_against_coin_oracle(self, leb13):
        depth = 9
        for k in (1, 5, 100, 255, 511):
            x = Fraction(k, 1 << depth)
            assert value_at_dyadic(leb13, x) == coin_distribution(Fraction(1, 3), k, depth)

    def test_against_fixed_point_iteration(self):
        for system in (lebesgue_system(Fraction(2, 3)), walk_system(1), walk_system(0.5)):
            oracle = iterate_functional_equation(system, depth=7)
            table = dyadic_value_table(system, 7)
            for got, want in zip(table, oracle):
                assert abs(float(got) - want) < 1e-9

    def test_nonconvergence_depth_cap(self, leb13):
        with pytest.raises(NonConvergenceError) as info:
            evaluate(leb13, Fraction(1, 3), 0, max_depth=64)
        # 1/3 = 0.0101...: 32 zeros and 32 ones, so the final enclosure is
        # the address mass (1/3)**32 * (2/3)**32.
        assert info.value.depth == 64
        assert info.value.width == Fraction(2**32, 3**64)
        assert str(info.value) == "enclosure width above 2*tol = 0 after 64 digits"
        # Values at dyadics have 3-power denominators: 1/7 is never hit.
        with pytest.raises(NonConvergenceError) as info:
            inverse_evaluate(leb13, Fraction(1, 7), 0, max_depth=20)
        assert info.value.depth == 20
        assert info.value.width == Fraction(1, 2**20)

    def test_nan_tol_refused(self, walk05):
        for solve in (evaluate, inverse_evaluate):
            with pytest.raises(DomainError, match="tol must be >= 0"):
                solve(walk05, 0.3, math.nan)

    def test_midpoint_within_tol(self, walk05):
        for x in (0.1, 0.37, 0.62, 0.93):
            tol = 1e-9
            got = evaluate(walk05, x, tol)
            tight = evaluate(walk05, x, 1e-13)
            assert abs(got - tight) <= tol + 1e-12


class TestFunctionalEquation:
    def test_half_point_exact(self, leb13, walk1):
        assert functional_equation_residual(leb13, Fraction(1, 2)) == 0
        assert functional_equation_residual(walk1, Fraction(1, 2)) == 0

    def test_exhaustive_depth_six_exact(self, leb13, walk1):
        for system in (leb13, walk1):
            for k in range(65):
                assert functional_equation_residual(system, Fraction(k, 64)) == 0

    def test_float_path_small_residual(self):
        system = walk_system(0.5)
        worst = max(
            functional_equation_residual(system, Fraction(k, 64)) for k in range(65)
        )
        assert worst < 1e-12

    def test_rejects_non_dyadic(self, leb13):
        with pytest.raises(DomainError):
            functional_equation_residual(leb13, Fraction(1, 3))


class TestInverse:
    def test_endpoints(self, walk1):
        assert inverse_evaluate(walk1, 0, 1e-9) == 0
        assert inverse_evaluate(walk1, 1, 1e-9) == 1

    def test_walk1_known_value(self, walk1):
        got = inverse_evaluate(walk1, Fraction(2, 3), 1e-10)
        assert abs(got - Fraction(1, 2)) <= 1e-10

    def test_exact_hit_on_dyadic_image(self, walk1):
        y = value_at_dyadic(walk1, Fraction(5, 16))
        assert inverse_evaluate(walk1, y, 0) == Fraction(5, 16)

    def test_round_trip_float(self, walk05):
        # x-accuracy 1e-21 makes the value interval pinned by ~70 digits,
        # whose measure is below 1e-8 even along the slowest orbit.
        rng = random.Random(123)
        for _ in range(400):
            y = rng.random()
            x = inverse_evaluate(walk05, y, 1e-21)
            assert abs(evaluate(walk05, x, 1e-12) - y) <= 1e-8

    def test_round_trip_exact_system(self, walk1):
        rng = random.Random(321)
        for _ in range(60):
            y = rng.random()
            x = inverse_evaluate(walk1, y, 1e-14)
            assert abs(closed_form_walk1(Fraction(x)) - y) <= 1e-8

    def test_documented_float_miss_where_f_is_flat(self):
        # The rounded node values of a flat stretch send the descent into the
        # wrong child: 1.94e-6 from the exact inverse of y (255/256 to
        # within 1e-20), with tol 5e-12.  Outward rounding must change this
        # knowingly.
        exact = walk_system(Fraction(3, 7))
        system = force_approx(exact)
        y = dyadic_value_table(system, 8)[255]
        assert y.hex() == "0x1.fffffb02ccea2p-1"
        x = inverse_evaluate(system, y, 5e-12)
        assert x.hex() == "0x1.fdffbeff88000p-1"
        assert abs(inverse_evaluate(exact, Fraction(y), 1e-20) - Fraction(255, 256)) <= 1e-20
        assert 1.93e-6 < 255 / 256 - x < 1.95e-6

    def test_bisection_oracle(self, walk05):
        for y in (0.2, 0.5, 0.83):
            lo, hi = 0.0, 1.0
            for _ in range(45):
                mid = (lo + hi) / 2
                if evaluate(walk05, mid, 1e-13) < y:
                    lo = mid
                else:
                    hi = mid
            assert abs(inverse_evaluate(walk05, y, 1e-12) - (lo + hi) / 2) < 1e-8


class TestClosedForm:
    def test_walk1(self, walk1):
        c0, f = closed_form_solution(walk1)
        assert c0 == Fraction(-1, 4)
        for x in (0, Fraction(1, 3), Fraction(1, 2), 1):
            assert f(x) == closed_form_walk1(Fraction(x))

    def test_lebesgue_half_identity(self, leb12):
        c0, f = closed_form_solution(leb12)
        assert c0 == 0
        for x in (0, Fraction(2, 7), 1):
            assert f(x) == x

    def test_density_integrates_to_one(self, walk1):
        c0, _ = closed_form_solution(walk1)
        density = ac_density(c0)
        assert density(Fraction(0)) == 2 and density(Fraction(1)) == Fraction(1, 2)
        # Antiderivative of 2/(x+1)^2 is -2/(x+1): integral over [0,1] is 1.
        assert -2 / Fraction(2) - (-2 / Fraction(1)) == 1
        # Simpson cross-check.
        n = 1 << 10
        xs = [Fraction(j, n) for j in range(n + 1)]
        w = [1 if j in (0, n) else (4 if j % 2 else 2) for j in range(n + 1)]
        simpson = sum(wi * float(density(x)) for wi, x in zip(w, xs)) / (3 * n)
        assert abs(simpson - 1.0) < 1e-10

    def test_density_is_derivative(self, walk1):
        c0, f = closed_form_solution(walk1)
        density = ac_density(c0)
        h = 1e-6
        for x in (0.2, 0.5, 0.8):
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(fd - density(x)) < 1e-8

    def test_matches_evaluation_at_dyadics(self, walk1):
        _, f = closed_form_solution(walk1)
        for j in range(0, 1 << 12, 97):
            x = Fraction(j, 1 << 12)
            assert value_at_dyadic(walk1, x) == f(x)

    def test_singular_system_rejected(self, leb13):
        with pytest.raises(NotAbsolutelyContinuousError):
            closed_form_solution(leb13)
        with pytest.raises(NotAbsolutelyContinuousError):
            normal_form(leb13)


class TestNormalForm:
    def ac_family(self, c0: Fraction) -> tuple[MoebiusMatrix, MoebiusMatrix]:
        a0 = MoebiusMatrix(Fraction(1, 2), 0, c0, 1)
        a1 = MoebiusMatrix(4 * c0 + 1, 1, 2 * c0, 2 * (1 + c0))
        return a0, a1

    def test_family_systems_never_mismatch(self):
        # Every exact absolutely continuous system must normalize into the
        # family; exercised across the family itself under random scalings.
        rng = random.Random(8)
        for _ in range(50):
            c0 = Fraction(rng.randint(-24, 90), 100)
            a0, a1 = self.ac_family(c0)
            k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            m = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            try:
                system = validate(a0.scaled(k), a1.scaled(m))
            except Exception:
                continue  # some c0 leave the admissible range
            n0, n1 = normal_form(system)
            assert (n0, n1) == self.ac_family(c0)

    def test_walk1_normal_form(self, walk1):
        n0, n1 = normal_form(walk1)
        assert n0 == MoebiusMatrix(Fraction(1, 2), 0, Fraction(-1, 4), 1)
        assert n1 == MoebiusMatrix(0, 1, Fraction(-1, 2), Fraction(3, 2))

    def test_lebesgue_half_normal_form(self, leb12):
        n0, n1 = normal_form(leb12)
        assert n0 == MoebiusMatrix(Fraction(1, 2), 0, 0, 1)
        assert n1 == MoebiusMatrix(1, 1, 0, 2)

    def test_approx_ac_verdict_still_matches_family(self, walk1):
        approx = force_approx(walk1)
        n0, n1 = normal_form(approx)
        assert abs(n0.c - (-0.25)) <= 1e-12


class TestEvalDyadicOnRandomSystems:
    def test_table_is_monotone_and_residual_free(self):
        rng = random.Random(77)
        for _ in range(10):
            system = random_valid_system(rng)
            table = dyadic_value_table(system, 6)
            assert table == sorted(table)
            for k in range(65):
                assert functional_equation_residual(system, Fraction(k, 64)) == 0

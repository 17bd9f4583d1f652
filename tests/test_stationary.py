import random
from fractions import Fraction

import pytest

from derham_lft import (
    DomainError,
    MoebiusMatrix,
    PoleError,
    apply_mobius,
    doubling_map_change_of_measure,
    dyadic_enclosure,
    dyadic_value_table,
    force_approx,
    interval_measure,
    inverse_evaluate,
    inverse_measure_interval,
    lebesgue_system,
    mass_from_word,
    mobius_derivative,
    stationarity_check,
    validate,
    walk_system,
)
from derham_lft._words import _Pairs
from helpers import random_valid_system


def g_walk1(y):
    # Inverse of 2x/(x+1).
    return y / (2 - y)


def nested_residuals(system, depth, tol):
    """(recursion, mass) residuals by the per-address loop: mu_g of
    address j at level k against 2**-k and against half the mass of
    address j mod 2**(k-1) at level k - 1."""
    g_at = [inverse_evaluate(system, v, tol / 2) for v in dyadic_value_table(system, depth)]

    def mass(k, j):
        stride = 1 << (depth - k)
        return g_at[(j + 1) * stride] - g_at[j * stride]

    max_mass = max_rec = system.zero()
    for k in range(1, depth + 1):
        cell = system.one() / 2**k
        for j in range(1 << k):
            m = mass(k, j)
            max_mass = max(max_mass, abs(m - cell))
            j_shift = j - (1 << (k - 1)) if j >= 1 << (k - 1) else j
            parent = mass(k - 1, j_shift) if k > 1 else g_at[-1] - g_at[0]
            max_rec = max(max_rec, abs(m - parent / 2))
    return max_rec, max_mass


def _tampered_pairs(table, index) -> dict:
    """The exact table and copies with pairs index and index + 1 swapped,
    pair index repeated, and at index + 1 a zero q, a negative q, or the
    pair (-p, -q) in place of (p, q)."""

    def changed(at, p, q):
        ps, qs = list(table.ps), list(table.qs)
        ps[at], qs[at] = p, q
        return _Pairs(table.basis, ps, qs)

    ps, qs = table.ps, table.qs
    nxt = index + 1
    swapped = changed(index, ps[nxt], qs[nxt])
    swapped.ps[nxt], swapped.qs[nxt] = ps[index], qs[index]
    return {
        "intact": table,
        "swapped": swapped,
        "equal": changed(nxt, ps[index], qs[index]),
        "zero q": changed(nxt, ps[nxt], 0),
        "negative q": changed(nxt, ps[nxt], -qs[nxt]),
        "negated": changed(nxt, -ps[nxt], -qs[nxt]),
    }


def _exact_systems():
    rng = random.Random(1205)
    return [lebesgue_system(Fraction(1, 3)), walk_system(1)] + [
        random_valid_system(rng) for _ in range(3)
    ]


def address(j, depth):
    return tuple((j >> (depth - 1 - i)) & 1 for i in range(depth))


def running_sum_residual(system, depth, quad_depth):
    """The exact doubling-map residual with each interval's right side
    summed one cell at a time, left to right: each cell's word read
    through basis.path, f at its midpoint by apply_mobius at the split,
    its mass by mass_from_word, and its term from mobius_derivative."""
    basis = system.word_basis

    def word(j, depth):
        return MoebiusMatrix(*basis.path(address(j, depth)))

    n_intervals, shift = 1 << depth, quad_depth - depth
    rhs = [system.zero()] * n_intervals
    for j in range(1 << quad_depth):
        cell = word(j, quad_depth)
        w = apply_mobius(cell, system.split_value)
        slope = mobius_derivative(system.A0, w) + mobius_derivative(system.A1, w)
        rhs[j >> shift] += slope * mass_from_word(cell)
    masses = [mass_from_word(word(j, depth + 1)) for j in range(2 << depth)]
    return max(
        (abs(a + b - r) for a, b, r in zip(masses, masses[n_intervals:], rhs)),
        default=system.zero(),
    )


def _quadrature_systems():
    rng = random.Random(1301)
    return [
        walk_system(1),
        walk_system(Fraction(3, 7)),
        lebesgue_system(Fraction(1, 3)),
        lebesgue_system(Fraction(1, 4)),
    ] + [random_valid_system(rng) for _ in range(8)]


def random_affine_system(rng):
    """An exact affine pair: A0 = ((p, 0), (0, 1)), A1 = ((1 - p, p), (0, 1)),
    both scaled by random positive rationals."""
    p = Fraction(rng.randint(1, 30), 31)
    a0 = MoebiusMatrix(p, 0, 0, 1).scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    a1 = MoebiusMatrix(1 - p, p, 0, 1).scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return validate(a0, a1)


def _same(got, want):
    """Equal values of the same type, with the same float bits."""
    if type(got) is float:
        return type(want) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


class TestInverseMeasure:
    def test_whole_interval(self, walk1, leb13):
        for system in (walk1, leb13):
            assert inverse_measure_interval(system, 0, 1, 1e-9) == 1

    def test_walk1_known_value(self, walk1):
        got = inverse_measure_interval(walk1, 0, Fraction(2, 3), 1e-10)
        assert abs(got - Fraction(1, 2)) <= 1e-10
        assert abs(float(got) - g_walk1(2 / 3)) <= 1e-9

    def test_dyadic_images_have_dyadic_mass(self, walk1):
        rng = random.Random(14)
        for _ in range(20):
            k = rng.randint(1, 8)
            bits = tuple(rng.randint(0, 1) for _ in range(k))
            enc = dyadic_enclosure(walk1, bits)
            got = inverse_measure_interval(walk1, enc.lower, enc.upper, 1e-11)
            assert got == Fraction(1, 2**k)

    def test_rejects_bad_interval(self, walk1):
        with pytest.raises(DomainError):
            inverse_measure_interval(walk1, Fraction(2, 3), Fraction(1, 3), 1e-9)


class TestStationarityCheck:
    def test_exact_walk1_residuals_vanish(self, walk1):
        report = stationarity_check(walk1, 8, 1e-11)
        assert report.max_residual_mass == 0
        assert report.max_residual_recursion == 0
        assert report.verdict_transfer

    def test_exact_lebesgue_mass_identity(self):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            report = stationarity_check(lebesgue_system(p), 6, 1e-11)
            assert report.max_residual_mass == 0
            assert report.max_residual_recursion == 0
            assert report.verdict_transfer

    def test_float_walk1_within_tolerance(self, walk1):
        report = stationarity_check(force_approx(walk1), 8, 1e-11)
        assert report.max_residual_mass < 1e-9
        assert report.max_residual_recursion < 1e-9
        # Each interval mass combines two endpoint inversions at tol/2,
        # and the recursion compares two such masses.
        assert report.max_residual_recursion <= 4 * 1e-11

    def test_float_walk_half(self, walk05):
        # Digit probabilities for this system reach 0.845, so the deepest
        # right-edge value intervals are flat enough that one ulp of value
        # error amplifies to ~1e-7 in x: the residual measures inversion
        # conditioning, not tolerance failure.
        report = stationarity_check(walk05, 6, 1e-11)
        assert report.max_residual_mass < 1e-5
        assert report.verdict_transfer

    def test_exact_residuals_vanish_at_any_tol(self, walk1):
        # Exact checks certify the table and invert nothing, whatever tol
        # is; tol is still validated.
        systems = [walk1, lebesgue_system(Fraction(1, 3))] + _exact_systems()[2:]
        for system in systems:
            for tol in (0.5, 1.0, 1e-11, 0.0):
                report = stationarity_check(system, 4, tol)
                assert report.max_residual_mass == 0, tol
                assert report.max_residual_recursion == 0, tol
        with pytest.raises(DomainError, match="tol must be >= 0"):
            stationarity_check(walk1, 4, -0.5)

    def test_depth_one_split_trivial(self, walk1):
        report = stationarity_check(walk1, 1, 1e-11)
        assert report.max_residual_recursion == 0

    def test_nan_tol_refused(self, walk1):
        with pytest.raises(DomainError, match="tol must be >= 0"):
            stationarity_check(walk1, 4, float("nan"))

    def test_depth_bounds(self, walk1):
        for depth in (0, 21):
            with pytest.raises(DomainError):
                stationarity_check(walk1, depth, 1e-11)

    @pytest.mark.parametrize("index", range(11))
    def test_level_pass_equals_nested_loop(self, index):
        exact = _exact_systems()
        systems = exact + [walk_system(0.5)] + [force_approx(s) for s in exact]
        system = systems[index]
        for depth in range(1, 11):
            report = stationarity_check(system, depth, 1e-11)
            rec, mass = nested_residuals(system, depth, 1e-11)
            assert _same(report.max_residual_recursion, rec), depth
            assert _same(report.max_residual_mass, mass), depth
            assert report.verdict_transfer is True

    def test_float_tol_floor_refused_before_sweeping(self, walk1, walk05, monkeypatch):
        from derham_lft import stationary

        class Swept(Exception):
            pass

        def no_sweep(sys, depth):
            raise Swept(depth)

        assert stationary._MIN_FLOAT_CHECK_TOL == 2.0**-53
        monkeypatch.setattr(stationary, "dyadic_value_table", no_sweep)
        monkeypatch.setattr(stationary, "_value_table", no_sweep)  # the exact table
        below = float.fromhex("0x1.fffffffffffffp-54")
        for system in (walk05, force_approx(walk1)):
            for tol in (below, 1e-30, 0.0):
                with pytest.raises(DomainError, match="below 2\\*\\*-53, .*--tol"):
                    stationarity_check(system, 4, tol)
            with pytest.raises(Swept):  # at the floor: checked, then swept
                stationarity_check(system, 4, 2.0**-53)
        # Exact checks invert nothing, so they take tol 0.
        with pytest.raises(Swept):
            stationarity_check(walk1, 4, 0.0)

    def test_depth_caps_refused_before_sweeping(self, walk1, monkeypatch):
        from derham_lft import solution, stationary
        from derham_lft._words import WordBasis

        class Swept(Exception):
            pass

        def no_sweep(*args):
            raise Swept(args[-1])

        # Exact checks share the exact table cap, which _value_table
        # enforces inside the real dyadic_value_table.
        assert solution._MAX_EXACT_TABLE_DEPTH == 20
        with monkeypatch.context() as patch:
            patch.setattr(WordBasis, "table", no_sweep)
            for exact_cap in (20, 3):
                patch.setattr(solution, "_MAX_EXACT_TABLE_DEPTH", exact_cap)
                refused = f"depth = {exact_cap + 1} exceeds {exact_cap}, the cap for exact tables"
                with pytest.raises(DomainError, match=f"{refused} .*--mode approx"):
                    stationarity_check(walk1, exact_cap + 1, 1e-11)
                with pytest.raises(Swept):  # at the cap: checked, then swept
                    stationarity_check(walk1, exact_cap, 1e-11)

        assert stationary._MAX_FLOAT_CHECK_DEPTH == 18
        monkeypatch.setattr(stationary, "dyadic_value_table", no_sweep)
        floats = (force_approx(walk1), walk_system(0.5))
        for float_cap in (18, 5):
            monkeypatch.setattr(stationary, "_MAX_FLOAT_CHECK_DEPTH", float_cap)
            for system in floats:
                refused = f"depth = {float_cap + 1} exceeds {float_cap}, .*smaller depth"
                with pytest.raises(DomainError, match=refused):
                    stationarity_check(system, float_cap + 1, 1e-11)
                with pytest.raises(Swept):
                    stationarity_check(system, float_cap, 1e-11)

    def test_exact_table_not_strictly_increasing_raises(self, walk1, monkeypatch):
        from derham_lft import stationary

        # The check reads the table's integer pairs: swap two, or repeat one,
        # in the middle of the depth-6 table and at its end.
        table = walk1.word_basis.table(6)
        for index in (20, len(table.ps) - 2):
            cases = _tampered_pairs(table, index)
            for name in ("swapped", "equal"):
                monkeypatch.setattr(stationary, "_value_table", lambda sys, depth: cases[name])
                with pytest.raises(ArithmeticError, match="not strictly increasing"):
                    stationarity_check(walk1, 6, 1e-11)

    def test_exact_increase_check_answers_as_the_fractions(self, walk1, monkeypatch):
        # Cross products of the pairs (every q > 0) or, past a sign check,
        # the Fraction path: the same answer or the same PoleError.
        from derham_lft import stationary

        def strictly_increasing(values):
            return all(a < b for a, b in zip(values, values[1:]))

        def outcome(read):
            try:
                return read()
            except PoleError as exc:
                return str(exc)

        for depth in (1, 6, 11):
            table = walk1.word_basis.table(depth)
            last = len(table.ps) - 2
            for index in sorted({0, min(20, last), last // 2 + 1, last}):
                for name, bad in _tampered_pairs(table, index).items():
                    copy = _Pairs(bad.basis, list(bad.ps), list(bad.qs))
                    want = outcome(lambda: strictly_increasing(copy.values()))
                    assert outcome(bad.increasing) == want, (depth, index, name)
                    assert want == {"zero q": "exact denominator c*z + d is zero"}.get(
                        name, name in ("intact", "negated")
                    )
        cases = _tampered_pairs(walk1.word_basis.table(6), 20)
        monkeypatch.setattr(stationary, "_value_table", lambda sys, depth: cases["zero q"])
        with pytest.raises(PoleError, match="^exact denominator c\\*z \\+ d is zero$"):
            stationarity_check(walk1, 6, 0.0)

    def test_exact_walk1_depth_16_residuals_are_fraction_zero(self, walk1):
        report = stationarity_check(walk1, 16, 1e-11)
        for residual in (report.max_residual_recursion, report.max_residual_mass):
            assert residual == 0 and type(residual) is Fraction
        assert (report.depth, report.verdict_transfer) == (16, True)


class TestDoublingChangeOfMeasure:
    def test_lebesgue_half_exact_zero(self, leb12):
        assert doubling_map_change_of_measure(leb12, 3, 8) == 0

    def test_lebesgue_third_exact_zero(self, leb13):
        # Both branch maps of this family have constant derivative (lower
        # rows are (0, 1)), and the constants sum to 1, so the identity
        # holds with zero quadrature error at any refinement.
        assert doubling_map_change_of_measure(leb13, 4, 10) == 0

    def test_preimage_structure(self, leb13):
        # T^{-1}[0, 1/2) = [0, 1/4) union [1/2, 3/4).
        lhs = interval_measure(leb13, (0, 0)) + interval_measure(leb13, (1, 0))
        f = Fraction(1, 3)
        assert lhs == f * f + (1 - f) * f

    def test_quadrature_order_on_walk1(self, walk1):
        r10 = doubling_map_change_of_measure(walk1, 3, 10)
        r12 = doubling_map_change_of_measure(walk1, 3, 12)
        assert r10 > 0
        assert r12 <= r10 / 1.5

    def test_float_agrees_with_exact(self, walk1):
        exact = doubling_map_change_of_measure(walk1, 3, 10)
        approx = doubling_map_change_of_measure(force_approx(walk1), 3, 10)
        assert abs(float(exact) - approx) < 1e-12
        # Pairwise float sums of table terms: within 64 units of 2**-52 of
        # the exact residual (3.0e-16 at most, measured).
        for system in _quadrature_systems():
            for depth, quad_depth in ((1, 6), (3, 9), (4, 11), (2, 10)):
                exact = doubling_map_change_of_measure(system, depth, quad_depth)
                approx = doubling_map_change_of_measure(force_approx(system), depth, quad_depth)
                assert abs(float(exact) - approx) <= 64 * 2.0**-52

    def test_parameter_validation(self, walk1):
        with pytest.raises(DomainError):
            doubling_map_change_of_measure(walk1, 4, 4)
        with pytest.raises(DomainError):
            doubling_map_change_of_measure(walk1, 0, 5)

    def test_quad_depth_cap(self, walk1):
        with pytest.raises(DomainError, match="cap of 22"):
            doubling_map_change_of_measure(walk1, 4, 23)

    def test_exact_quad_depth_cap_refused_before_sweeping(self, walk1, leb13, monkeypatch):
        from derham_lft import stationary
        from derham_lft._words import WordBasis

        class Swept(Exception):
            pass

        def no_sweep(basis, depth):
            raise Swept(depth)

        assert stationary._MAX_EXACT_QUAD_DEPTH == 14
        monkeypatch.setattr(WordBasis, "table", no_sweep)
        for cap in (14, 6):
            monkeypatch.setattr(stationary, "_MAX_EXACT_QUAD_DEPTH", cap)
            refused = f"quad_depth = {cap + 1} exceeds {cap}, .*--mode approx"
            with pytest.raises(DomainError, match=refused):
                doubling_map_change_of_measure(walk1, 3, cap + 1)
            with pytest.raises(Swept):  # at the cap: checked, then swept
                doubling_map_change_of_measure(walk1, 3, cap)
            # Float systems and exact affine pairs are not capped.
            for system in (force_approx(walk1), leb13):
                with pytest.raises(Swept):
                    doubling_map_change_of_measure(system, 3, cap + 1)
        # The cap of every mode is checked first, with its message.
        with pytest.raises(DomainError, match="^quad_depth = 23 exceeds the cap of 22$"):
            doubling_map_change_of_measure(walk1, 4, 23)

    def test_exact_quad_depth_cap_follows_entry_bits(self, walk1, monkeypatch):
        from derham_lft._words import WordBasis

        class Swept(Exception):
            pass

        def no_sweep(basis, depth):
            raise Swept(depth)

        monkeypatch.setattr(WordBasis, "table", no_sweep)
        # (system, bit length of its largest integer entry, quad-depth cap):
        # the largest q with bits * 2**q <= 3 * 2**14, walk:1 at its cap.
        cases = [
            (walk1, 3, 14),
            (walk_system(Fraction(3, 7)), 4, 13),
            (random_valid_system(random.Random(41)), 6, 13),
            (random_valid_system(random.Random(57)), 7, 12),
            (random_valid_system(random.Random(14)), 8, 12),
            (random_valid_system(random.Random(13)), 15, 11),
            (random_valid_system(random.Random(5)), 18, 11),
            (_quadrature_systems()[4], 19, 11),
        ]
        for system, bits, cap in cases:
            assert system.word_basis.entry_bits() == bits
            for depth in (1, 4):
                refused = f"quad_depth = {cap + 1} exceeds {cap}, .* {bits}-bit entries; use --mode approx"
                with pytest.raises(DomainError, match=refused):
                    doubling_map_change_of_measure(system, depth, cap + 1)
                with pytest.raises(Swept):  # at the cap: checked, then swept
                    doubling_map_change_of_measure(system, depth, cap)
            with pytest.raises(Swept):  # float twins are not capped
                doubling_map_change_of_measure(force_approx(system), 1, cap + 1)

    @pytest.mark.parametrize("index", range(12))
    def test_exact_quadrature_equals_running_sum(self, index):
        system = _quadrature_systems()[index]
        for depth, quad_depth in ((1, 6), (3, 9), (4, 11), (2, 10), (5, 8)):
            got = doubling_map_change_of_measure(system, depth, quad_depth)
            want = running_sum_residual(system, depth, quad_depth)
            assert type(got) is type(want) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_exact_quadrature_sums_across_blocks(self, walk1, walk05, monkeypatch):
        # With 2**3-row blocks an interval's cells span several blocks; the
        # sums join in the same tree, so float residuals keep their bits.
        from derham_lft import _words

        floats = [force_approx(walk1), walk05, force_approx(_quadrature_systems()[4])]
        pairs = [(d, 9) for d in (1, 4, 6, 8)] + [(2, 12), (5, 11)]
        want = [running_sum_residual(walk1, d, 9) for d in (1, 4, 6, 8)]
        want_floats = [[doubling_map_change_of_measure(s, *p) for p in pairs] for s in floats]
        monkeypatch.setattr(_words, "BLOCK_LEVELS", 3)
        assert [doubling_map_change_of_measure(walk1, d, 9) for d in (1, 4, 6, 8)] == want
        for system, residuals in zip(floats, want_floats):
            got = [doubling_map_change_of_measure(system, *p) for p in pairs]
            assert [r.hex() for r in got] == [r.hex() for r in residuals]
            assert all(type(r) is float for r in got)

    def test_exact_quadrature_from_pairs_across_table_blocks(self, monkeypatch):
        # With 2**2-value blocks the table's pairs, and the Fractions of its
        # preimage grid, are formed in many blocks.
        from derham_lft import _words

        monkeypatch.setattr(_words, "BLOCK_LEVELS", 2)
        for system in _quadrature_systems()[:2] + _quadrature_systems()[11:]:
            for depth, quad_depth in ((1, 10), (6, 8)):
                got = doubling_map_change_of_measure(system, depth, quad_depth)
                want = running_sum_residual(system, depth, quad_depth)
                assert type(got) is type(want) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_float_residuals_from_arrays(self, walk1, walk05, monkeypatch):
        # Past ARRAY_LEVELS the table is a float64 array and the cell terms
        # and their pairwise sums are numpy operations: the same bits.
        import numpy as np

        from derham_lft import _words

        floats = [force_approx(walk1), walk05, walk_system(1.5)]
        floats += [force_approx(s) for s in _quadrature_systems()[1:6]]
        pairs = [(1, 9), (4, 9), (8, 9), (2, 12), (5, 11)]
        want = [[doubling_map_change_of_measure(s, *p) for p in pairs] for s in floats]
        monkeypatch.setattr(_words, "ARRAY_LEVELS", 5)
        assert isinstance(walk05.word_basis.table(6).zs, np.ndarray)
        for system, residuals in zip(floats, want):
            got = [doubling_map_change_of_measure(system, *p) for p in pairs]
            assert all(type(r) is float for r in got)
            assert [r.hex() for r in got] == [r.hex() for r in residuals]

    def test_exact_zero_denominator_raises_pole_error(self, walk1):
        from derham_lft._words import _Pairs

        basis = walk1.word_basis
        (_, _, c0, d0), (_, _, c1, d1) = basis.m0, basis.m1
        # A word whose own map has its pole at the split, and the identity
        # word with the split at the pole of A0, then of A1.
        cases = [
            ((1, 0, 1, 1), Fraction(-1)),
            (basis.identity, Fraction(-d0, c0)),
            (basis.identity, Fraction(-d1, c1)),
        ]
        for (a, b, c, d), split in cases:
            with pytest.raises(PoleError):  # as the per-cell path raises
                z = apply_mobius(MoebiusMatrix(a, b, c, d), split)
                mobius_derivative(walk1.A0, z)
                mobius_derivative(walk1.A1, z)
            # One cell whose midpoint pair is the word's pair at the split.
            p, q = split.numerator, split.denominator
            table = _Pairs(basis, [0, a * p + b * q, 1], [1, c * p + d * q, 1])
            with pytest.raises(PoleError, match="^exact denominator c\\*z \\+ d is zero$"):
                table.cell_terms()

    @pytest.mark.parametrize("index", range(8))
    def test_affine_closed_form_equals_cell_sum(self, index):
        rng = random.Random(1213)
        systems = [lebesgue_system(Fraction(1, n)) for n in (3, 2, 4)] + [
            random_affine_system(rng) for _ in range(5)
        ]
        system = systems[index]
        assert system.exact and system.affine
        for quad_depth in range(2, 13):
            for depth in sorted({1, quad_depth // 2, quad_depth - 1}):
                got = doubling_map_change_of_measure(system, depth, quad_depth)
                want = running_sum_residual(system, depth, quad_depth)
                assert type(got) is type(want) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_exact_affine_quadrature_sweeps_no_cells(self, leb13, monkeypatch):
        from derham_lft._words import WordBasis

        swept = []
        table = WordBasis.table

        def recording(basis, depth):
            swept.append(depth)
            return table(basis, depth)

        monkeypatch.setattr(WordBasis, "table", recording)
        assert doubling_map_change_of_measure(leb13, 1, 22) == 0
        assert swept == [2]  # the preimage masses only
        with pytest.raises(DomainError, match="^quad_depth = 23 exceeds the cap of 22$"):
            doubling_map_change_of_measure(leb13, 4, 23)
        assert swept == [2]


class TestVerdictTransfer:
    def test_all_presets(self):
        systems = [
            lebesgue_system(Fraction(1, 3)),
            lebesgue_system(Fraction(1, 2)),
            walk_system(1),
            walk_system(0.5),
        ]
        for system in systems:
            assert stationarity_check(system, 4, 1e-10).verdict_transfer

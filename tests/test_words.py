"""Word products and value tables against a reference fold of the public
mat_mul / renormalize primitives."""

import itertools
import math
import operator
import random
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from derham_lft import (
    DeRhamError,
    MoebiusMatrix,
    PoleError,
    apply_mobius,
    dyadic_enclosure,
    dyadic_value_table,
    evaluate,
    force_approx,
    identity_matrix,
    interval_measure,
    inverse_evaluate,
    lebesgue_system,
    mass_from_word,
    mat_mul,
    ratio_state,
    renormalize,
    walk_system,
    walk_tree,
    word_matrix,
)
from derham_lft import NonConvergenceError, _words, numerics
from derham_lft._words import (
    BLOCK_LEVELS,
    EXPONENT_BAND,
    LEAVES,
    PREFIX_LEVELS,
    RENORM_EVERY,
    ExactBasis,
    FloatBasis,
    _Array,
    _Floats,
    _Pairs,
)
from helpers import (
    random_valid_system,
    reference_evaluate,
    reference_inverse_evaluate,
    reference_value,
)


def reference_word(system, bits):
    """Left fold of mat_mul, float products rescaled every RENORM_EVERY."""
    word = identity_matrix(system.exact)
    for n, digit in enumerate(bits, start=1):
        word = mat_mul(word, system.matrix(digit))
        if not system.exact and n % RENORM_EVERY == 0:
            word = renormalize(word)
    return word


def address(j, depth):
    return tuple((j >> (depth - 1 - i)) & 1 for i in range(depth))


def systems(count, seed):
    rng = random.Random(seed)
    return [random_valid_system(rng, scaled=bool(i % 2)) for i in range(count)]


def bits_of(x):
    return float(x).hex()


class TestExactSweep:
    def test_every_leaf_to_depth_10(self):
        depth = 10
        for system in systems(4, 11):
            basis = system.word_basis
            values = dyadic_value_table(system, depth)
            assert len(values) == (1 << depth) + 1
            for j in range(1 << depth):
                word = basis.path(address(j, depth))
                ref = reference_word(system, address(j, depth))
                assert values[j] == apply_mobius(ref, 0)
                assert isinstance(values[j], Fraction)
                assert basis.mass(word) == mass_from_word(ref)
                ones = bin(j).count("1")
                assert basis.literal(word, depth - ones, ones) == ref

    def test_word_matrix_is_the_literal_product(self):
        rng = random.Random(3)
        for system in systems(4, 12):
            for _ in range(20):
                bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 30)))
                got = word_matrix(system, bits)
                assert got == reference_word(system, bits)
                assert all(isinstance(e, Fraction) for e in got.entries)


class TestFloatSweep:
    def test_leaves_at_depth_18_bit_identical(self):
        depth = 18
        width = 1 << BLOCK_LEVELS
        # Both sides of every block boundary, plus random leaves.
        rng = random.Random(5)
        picks = {0, (1 << depth) - 1}
        for k in range(1, 1 << (depth - BLOCK_LEVELS)):
            picks |= {k * width - 1, k * width}
        picks |= {rng.randrange(1 << depth) for _ in range(40)}
        for system in [force_approx(s) for s in systems(2, 13)] + [walk_system(0.5)]:
            for j in sorted(picks):
                ref = reference_word(system, address(j, depth))
                leaf = system.word_basis.path(address(j, depth))
                assert list(map(bits_of, leaf)) == list(map(bits_of, ref.entries))

    def test_level_sweeps_equal_path_reads_at_depth_18(self):
        # Table values (a float64 array at this depth) against one-path
        # reads of the full-length address (value_at_dyadic reads the
        # terminating address, a shorter word with other last bits), and
        # one-path masses against the mat_mul / renormalize fold.
        depth = 18
        width = 1 << BLOCK_LEVELS
        rng = random.Random(18)
        picks = {0, (1 << depth) - 1}
        for k in range(1, 1 << (depth - BLOCK_LEVELS)):
            picks |= {k * width - 1, k * width}
        picks |= {rng.randrange(1 << depth) for _ in range(200)}
        twins = [force_approx(s) for s in systems(2, 16)]
        twins += [force_approx(walk_system(1)), walk_system(0.5), walk_system(0.3)]
        for system in twins:
            assert isinstance(system.word_basis.table(depth).zs, np.ndarray)
            table = dyadic_value_table(system, depth)
            for j in sorted(picks):
                bits = address(j, depth)
                assert bits_of(table[j]) == bits_of(dyadic_enclosure(system, bits).lower)
                want = mass_from_word(reference_word(system, bits))
                assert bits_of(interval_measure(system, bits)) == bits_of(want)

    def test_word_matrix_bit_identical(self):
        rng = random.Random(6)
        system = force_approx(systems(1, 14)[0])
        for _ in range(30):
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 50)))
            got = word_matrix(system, bits).entries
            assert list(map(bits_of, got)) == list(map(bits_of, reference_word(system, bits).entries))


def word_product_table(system, depth):
    """The value table read off word products: the word of every address
    at the depth, formed left to right, read at 0; f(1) appended."""
    basis = system.word_basis
    words = (basis.path(address(j, depth)) for j in range(1 << depth))
    return [reference_value(basis, word, system.zero()) for word in words] + [system.one()]


def exact_tables():
    return [
        walk_system(1),
        walk_system(Fraction(3, 7)),
        walk_system(Fraction(2, 7)),
        lebesgue_system(Fraction(1, 3)),
        lebesgue_system(Fraction(1, 4)),
    ] + systems(8, 17)


def fractions_of(values):
    assert all(type(v) is Fraction for v in values)
    return [(v.numerator, v.denominator) for v in values]


#: Float table values lie within this of the correctly rounded exact
#: values on the force_approx twins (at most 8.9e-16 measured on 200
#: random systems at depth 9; the word-product sweep reached 2.4e-15).
FLOAT_TABLE_BOUND = 2.0**-49


class TestValueTable:
    @pytest.mark.parametrize("index", range(13))
    def test_exact_tables_equal_word_products(self, index):
        system = exact_tables()[index]
        for depth in range(13):
            want = word_product_table(system, depth)
            assert fractions_of(dyadic_value_table(system, depth)) == fractions_of(want)

    def test_exact_table_at_the_cap(self):
        from derham_lft import solution

        depth = solution._MAX_EXACT_TABLE_DEPTH
        system = walk_system(1)
        table = dyadic_value_table(system, depth)
        assert len(table) == (1 << depth) + 1
        rng = random.Random(20)
        picks = {0, 1, (1 << depth) - 1} | {rng.randrange(1 << depth) for _ in range(300)}
        for k in range(1, 1 << (depth - BLOCK_LEVELS)):
            picks |= {k * (1 << BLOCK_LEVELS) - 1, k * (1 << BLOCK_LEVELS)}
        basis = system.word_basis
        for j in sorted(picks):
            want = basis.value(basis.path(address(j, depth)), Fraction(0))
            assert fractions_of([table[j]]) == fractions_of([want])
            assert table[j] == Fraction(2 * j, j + (1 << depth))  # f(x) = 2x/(x + 1)

    def test_tables_in_small_blocks(self, monkeypatch):
        from derham_lft import _words

        cases = [walk_system(1), systems(1, 18)[0], walk_system(0.5), force_approx(walk_system(1))]
        want = [dyadic_value_table(system, 9) for system in cases]
        monkeypatch.setattr(_words, "BLOCK_LEVELS", 3)
        for system, values in zip(cases, want):
            got = dyadic_value_table(system, 9)
            if system.exact:
                assert fractions_of(got) == fractions_of(values)
            else:
                assert list(map(bits_of, got)) == list(map(bits_of, values))

    def test_float_tables_as_arrays(self, monkeypatch):
        # Past ARRAY_LEVELS a float table is a float64 array mapped with the
        # list's operations: the same bits, in blocks of any size, and the
        # same pole check.
        from derham_lft import _words

        cases = [walk_system(0.5), walk_system(0.3), force_approx(walk_system(1))]
        cases += [force_approx(s) for s in systems(3, 19)]
        want = [[dyadic_value_table(system, depth) for depth in range(11)] for system in cases]
        hop = MoebiusMatrix(1.0, 1.0, -1.0, 1.0)  # maps 0 to 1, its pole
        with pytest.raises(PoleError) as pole:
            apply_mobius(hop, apply_mobius(hop, 0.0))
        for block_levels in (BLOCK_LEVELS, 2):
            monkeypatch.setattr(_words, "BLOCK_LEVELS", block_levels)
            monkeypatch.setattr(_words, "ARRAY_LEVELS", 4)
            for system, tables in zip(cases, want):
                for depth, values in enumerate(tables):
                    assert isinstance(system.word_basis.table(depth).zs, np.ndarray) == (depth > 4)
                    got = dyadic_value_table(system, depth)
                    assert all(type(v) is float for v in got)
                    assert list(map(bits_of, got)) == list(map(bits_of, values))
            assert isinstance(walk_system(1).word_basis.table(8), _Pairs)  # exact pairs
            monkeypatch.setattr(_words, "ARRAY_LEVELS", 1)
            with pytest.raises(PoleError) as got:
                FloatBasis(hop, hop, 0.5).table(2)
            assert str(got.value) == str(pole.value)

    @pytest.mark.parametrize("index", range(13))
    def test_float_tables_near_the_rounded_exact_table(self, index):
        exact = exact_tables()[index]
        system = force_approx(exact)
        for depth in (0, 1, 5, 10):
            table = dyadic_value_table(system, depth)
            assert all(type(v) is float for v in table)
            rounded = [float(v) for v in dyadic_value_table(exact, depth)]
            assert max(abs(a - b) for a, b in zip(table, rounded)) <= FLOAT_TABLE_BOUND
            assert max(abs(a - b) for a, b in zip(table, word_product_table(system, depth))) <= 2 * FLOAT_TABLE_BOUND

    def test_float_tables_non_decreasing(self):
        twins = [force_approx(system) for system in exact_tables()[:5]]
        for system in twins + [walk_system(0.5), walk_system(1.5)]:
            table = dyadic_value_table(system, 16)
            assert (table[0], table[-1]) == (0.0, 1.0)
            assert all(a <= b for a, b in zip(table, table[1:]))


class TestWalkTree:
    def test_exact_words_and_states(self):
        for system in systems(3, 15):
            nodes = list(walk_tree(system, 6))
            assert [n.bits for n in nodes] == sorted(n.bits for n in nodes)  # pre-order
            assert len(nodes) == 2**7 - 1
            for node in nodes:
                ref = reference_word(system, node.bits)
                assert node.word == ref
                assert node.mass == mass_from_word(ref)
                assert node.state == ratio_state(system, node.bits)
                assert isinstance(node.state, Fraction)

    def test_float_words_and_states_through_renormalization(self):
        system = walk_system(0.5)
        # Pre-order reaches depth 17 first, past the level-16 rescaling.
        for node in itertools.islice(walk_tree(system, 17), 3000):
            ref = reference_word(system, node.bits)
            assert list(map(bits_of, node.word.entries)) == list(map(bits_of, ref.entries))
            assert bits_of(node.mass) == bits_of(mass_from_word(ref))
            assert bits_of(node.state) == bits_of(ratio_state(system, node.bits))


@pytest.mark.parametrize("exact", [True, False])
def test_pole_checks(exact):
    pole = MoebiusMatrix(1, 0, -1, 1)  # c*z + d vanishes at z = 1
    if not exact:
        pole = MoebiusMatrix(*(float(e) for e in pole.entries))
    one = Fraction(1) if exact else 1.0
    basis = (ExactBasis if exact else FloatBasis)(pole, pole, one)
    with pytest.raises(PoleError):  # the descent reads A0 at 1
        basis.evaluate(one / 3, 0.0, 8)
    with pytest.raises(PoleError):  # a split value of 1
        basis.inverse(one / 3, 0.0, 8)
    with pytest.raises(PoleError):
        basis.image((0,), one)
    # The quadrature's cells: a midpoint value at 1, where A0' and A1'
    # have the pole, and (exact pairs) a midpoint value that is a pole.
    tables = [_Floats(basis, [0.0, 1.0, 1.0]), _Array(basis, np.array([0.0, 1.0, 1.0]))]
    if exact:
        tables = [_Pairs(basis, [0, 1, 1], [1, 1, 1]), _Pairs(basis, [0, 1, 1], [1, 0, 1])]
    for table in tables:
        with pytest.raises(PoleError):
            table.cell_terms()
    # z -> (z + 1)/(1 - z) maps 0 to 1, its pole: the table and the
    # one-path read of depth 2 raise as apply_mobius does.
    hop = MoebiusMatrix(1, 1, -1, 1)
    if not exact:
        hop = MoebiusMatrix(*(float(e) for e in hop.entries))
    basis = (ExactBasis if exact else FloatBasis)(hop, hop, one / 2)
    with pytest.raises(PoleError) as want:
        apply_mobius(hop, apply_mobius(hop, 0 * one))
    # Exact tables hold pairs, so the pole shows where their values are formed.
    reads = [lambda: basis.image((0, 1), 0 * one)]
    if exact:
        reads += [lambda: basis.table(2).values(), lambda: basis.table(2).floats()]
    else:
        reads += [lambda: basis.table(2)]
    for read in reads:
        with pytest.raises(PoleError) as got:
            read()
        assert str(got.value) == str(want.value)
    assert basis.table(1).floats() == [1.0, 1.0, 1.0]  # depth 1 stops short of the pole


def descent_systems():
    """Float systems for the descent oracle: two float presets, the
    force_approx twins of exact presets and of random admissible pairs,
    and two float presets whose f is flat enough that rounded node values
    of the top levels decrease (lebesgue:0.99 at 97 in-order neighbour
    pairs, walk:0.1 at 159)."""
    twins = [walk_system(1), walk_system(Fraction(3, 7)), lebesgue_system(Fraction(1, 3))]
    floats = [walk_system(0.5), walk_system(1.5)]
    flat = [lebesgue_system(0.99), walk_system(0.1)]
    return floats + [force_approx(s) for s in twins + systems(3, 22)] + flat


DESCENT_INDICES = range(len(descent_systems()))


def outcome(call, *args):
    """A descent's result as float.hex, or its error: type, message, and the
    depth and width of a NonConvergenceError."""
    try:
        value = call(*args)
    except DeRhamError as exc:
        width = getattr(exc, "width", None)
        width = None if width is None else bits_of(width)
        return type(exc).__name__, str(exc), getattr(exc, "depth", None), width
    assert type(value) is float
    return bits_of(value)


class TestFusedDescents:
    """Float evaluate and inverse_evaluate equal, in float.hex, the loop over
    FloatBasis.step and the word's value at a point (helpers' reference)."""

    TOLS = (1e-6, 1e-12, 1e-15, 0.0)

    @staticmethod
    def points(system, rng):
        table = dyadic_value_table(system, 8)
        xs = [rng.random() for _ in range(6)] + [0.5, 0.75, 1 / 3, 1 - 2.0**-53, 2.0**-60]
        ys = [rng.random() for _ in range(6)] + [table[j] for j in (1, 85, 128, 255)]
        return xs, ys + [system.split_value, Fraction(1, 3), Fraction(2, 7)]

    @pytest.mark.parametrize("index", DESCENT_INDICES)
    def test_bit_identical_to_the_reference(self, index):
        system = descent_systems()[index]
        assert not system.exact
        xs, ys = self.points(system, random.Random(index))
        for tol in self.TOLS:
            for x in xs:
                want = outcome(reference_evaluate, system, x, tol)
                assert outcome(evaluate, system, x, tol) == want, (x, tol)
            for y in ys:
                want = outcome(reference_inverse_evaluate, system, y, tol)
                assert outcome(inverse_evaluate, system, y, tol) == want, (y, tol)

    def test_exact_y_is_compared_not_cast(self):
        # Just below the root's node value f(1/2) as a Fraction, y goes left;
        # cast to a float it would equal that value and go right.
        for system in descent_systems():
            y = Fraction(system.split_value) - Fraction(1, 10**30)
            got = outcome(inverse_evaluate, system, y, 1e-15)
            assert got == outcome(reference_inverse_evaluate, system, y, 1e-15)
            assert float.fromhex(got) < 0.5 <= inverse_evaluate(system, float(y), 1e-15)

    def test_nonconvergence_carries_depth_and_width(self):
        for system in descent_systems():
            for max_depth in (-1, 0, 1, 3, 20):
                for call, ref in ((evaluate, reference_evaluate),
                                  (inverse_evaluate, reference_inverse_evaluate)):
                    got = outcome(call, system, 0.3, 1e-15, max_depth)
                    assert got == outcome(ref, system, 0.3, 1e-15, max_depth)
                    if max_depth < 20:
                        assert got[0] == "NonConvergenceError"
                        assert got[2] == max(max_depth, 0)

    def test_same_pole_error_under_a_large_pole_tolerance(self, monkeypatch):
        # A wide tolerance sends the descents past their inline bound to
        # numerics._check_pole, at some depth or at none.
        raised = set()
        for rtol in (0.15, 0.2, 0.45, 0.9, 2.0, 1e3):
            monkeypatch.setattr(numerics, "POLE_RTOL", rtol)
            for system in descent_systems():
                for z in (0.1, 0.3, 0.7, 0.95):
                    for call, ref in ((evaluate, reference_evaluate),
                                      (inverse_evaluate, reference_inverse_evaluate)):
                        got = outcome(call, system, z, 1e-12)
                        assert got == outcome(ref, system, z, 1e-12)
                        if type(got) is tuple:
                            assert got[0] == "PoleError"
                            raised.add(rtol)
        assert raised == {0.15, 0.2, 0.45, 0.9, 2.0, 1e3}  # every tolerance bites somewhere

    # -- the prefix: the top PREFIX_LEVELS levels, formed once per basis ---

    DEPTHS = (PREFIX_LEVELS - 1, PREFIX_LEVELS, PREFIX_LEVELS + 1, 60)
    PREFIX_TOLS = (2.0**-PREFIX_LEVELS, 2.0**-13, 2.0**-14, 1e-12, 0.0)

    @staticmethod
    def edge_points(system, rng):
        """Points at and around the prefix's edges: NaN, infinities, a
        subnormal, 1 - 2**-53, dyadic points and table values at and below
        the leaves (some equal node values), and exact values for inverse."""
        table = dyadic_value_table(system, PREFIX_LEVELS + 1)
        edges = [math.nan, math.inf, -math.inf, 5e-324, 1 - 2.0**-53, 2.0**-13, 0.5]
        xs = edges + [rng.random() for _ in range(4)]
        ys = edges + [rng.random() for _ in range(4)]
        ys += [table[j] for j in (1, 2, 3, 2048, 4095, 4096, 4097, 8191)]
        return xs, ys + [Fraction(1, 3), Fraction(table[4096]) - Fraction(1, 10**30)]

    @pytest.mark.parametrize("inverse_first", [False, True])
    @pytest.mark.parametrize("index", DESCENT_INDICES)
    def test_prefix_jump_bit_identical_to_the_reference(self, index, inverse_first):
        system = descent_systems()[index]
        xs, ys = self.edge_points(system, random.Random(index))
        (evaluations, ref_e), (inversions, ref_i) = REFERENCES
        calls = [(evaluations, ref_e, x) for x in xs] + [(inversions, ref_i, y) for y in ys]
        for op, ref, z in reversed(calls) if inverse_first else calls:
            for max_depth in self.DEPTHS:
                for tol in self.PREFIX_TOLS:
                    want = outcome(ref, system, z, tol, max_depth)
                    assert basis_outcome(system, op, z, tol, max_depth) == want, (op, z, tol)
        prefix = system.word_basis._prefix
        assert prefix.widths and prefix.values

    def test_prefix_holds_the_reference_words_widths_and_node_values(self):
        # Systems whose node values increase store them as they are; the
        # flat ones store them clamped, as
        # test_node_values_are_clamped_between_their_ancestors checks.
        for system in descent_systems()[:4]:
            basis = system.word_basis
            assert basis._prefix is None
            # Descents that cannot jump, or tols too coarse to, build nothing.
            evaluate(system, 0.3, 0.01, PREFIX_LEVELS)
            evaluate(system, 0.3, 2.0**-13)
            evaluate(system, 0.3, 1e-3)
            inverse_evaluate(system, 0.3, 2.0**-13)
            assert basis._prefix is None
            inverse_evaluate(system, 0.3, 2.0**-14)
            prefix = basis._prefix
            evaluate(system, 0.3, 1e-12)
            assert basis._prefix is prefix  # built once, for both descents
            assert len(prefix.widths) == len(prefix.words) == LEAVES
            assert len(prefix.values) == LEAVES - 1
            for i in (0, 1, 1234, 2047, 2048, LEAVES - 1):
                bits = tuple(int(b) for b in format(i, f"0{PREFIX_LEVELS}b"))
                assert prefix.words[i] == basis.path(bits)
                reads = [
                    reference_value(basis, basis.path(bits[:k]), 1)
                    - reference_value(basis, basis.path(bits[:k]), 0)
                    for k in range(1, PREFIX_LEVELS + 1)
                ]
                assert bits_of(prefix.widths[i]) == bits_of(min(reads))
                # Node i >> k of level PREFIX_LEVELS - k, the k-th ancestor of
                # leaf i, is in-order value ((i >> k) * 2 + 1) * 2**(k - 1) - 1.
                for k in range(1, PREFIX_LEVELS + 1):
                    node = basis.path(bits[: PREFIX_LEVELS - k])
                    value = reference_value(basis, node, basis.split)
                    assert bits_of(prefix.values[((i >> k) * 2 + 1 << k - 1) - 1]) == bits_of(value)
        # Float f of walk:0.1 is flat enough that rounding makes some leaf's
        # enclosure wider than an ancestor's: the width kept is the least.
        system = walk_system(0.1)
        basis = system.word_basis
        evaluate(system, 0.3, 1e-12)
        level, least = [basis.identity], [math.inf]
        for depth in range(1, PREFIX_LEVELS + 1):
            level = [basis.step(word, digit, depth) for word in level for digit in (0, 1)]
            reads = [reference_value(basis, w, 1) - reference_value(basis, w, 0) for w in level]
            least = [min(m, r) for m, r in zip((m for m in least for _ in (0, 1)), reads)]
        assert list(map(bits_of, basis._prefix.widths)) == list(map(bits_of, least)) != reads

    @pytest.mark.parametrize("op", ["evaluate", "inverse"])
    def test_first_descent_of_either_kind_builds_both_parts(self, op):
        for system in descent_systems():
            assert basis_outcome(system, op, 0.3, 1e-12, 60) == outcome(
                dict(REFERENCES)[op], system, 0.3, 1e-12, 60
            )
            prefix = system.word_basis._prefix
            assert len(prefix.widths) == len(prefix.words) == LEAVES
            assert len(prefix.values) == LEAVES - 1

    def test_bases_at_other_splits_match_the_reference(self):
        # The prefix holds node values at its basis's split; a basis built
        # at another split descends as the loop that splits there.  One ulp
        # off f(1/2) the node values still increase; at 0.25 or 0.75 they do
        # not, and are clamped.  The descent jumps at every split.
        for system in descent_systems():
            split = system.split_value
            sizes = []
            for other in (math.nextafter(split, 1.0), math.nextafter(split, 0.0), 0.25, 0.75):
                basis = FloatBasis(system.A0, system.A1, other)
                for y in (0.1, 0.3, split, other, 0.7, 0.95):
                    for tol in (1e-12, 0.0):
                        got = outcome(basis_descent(basis, "inverse"), y, tol, 60)
                        want = outcome(reference_inverse_evaluate, system, y, tol, 60, other)
                        assert got == want, (other, y, tol)
                sizes.append(len(basis._prefix.values))
            assert sizes == [LEAVES - 1] * 4

    def test_prefix_falls_back_where_it_cannot_stand_in(self):
        # Top nodes at the pole: level-k words are (1, 0, -k/4, 1), so at
        # split 2.0 level 2 fails the inverse's bound first, and at split 0.0
        # level 4 fails evaluate's.  Either way all three parts are kept as
        # [], and both descents run their loops from the root, raising as
        # the reference does.
        pole = MoebiusMatrix(1.0, 0.0, -0.25, 1.0)
        for split in (2.0, 0.0):
            system = types.SimpleNamespace(
                exact=False, word_basis=FloatBasis(pole, pole, split), split_value=split,
                zero=lambda: 0.0, one=lambda: 1.0,
            )
            for op, ref in REFERENCES:
                for z in (1 / 3, 0.7):
                    want = outcome(ref, system, z, 0.0, 20)
                    assert basis_outcome(system, op, z, 0.0, 20) == want, (split, op, z)
                    raises = "PoleError" if op == "evaluate" or split else "NonConvergenceError"
                    assert want[0] == raises
            prefix = system.word_basis._prefix
            assert prefix.words == prefix.widths == prefix.values == []
        # Flat float f: rounded node values of lebesgue(0.99) decrease (at
        # in-order 254 first), yet it keeps its 4095 values, clamped, and
        # every inverse jumps: one read of the leaf words per query.
        system = lebesgue_system(0.99)
        table = dyadic_value_table(system, PREFIX_LEVELS)
        xs, ys = self.edge_points(system, random.Random(7))
        ys += table[250:260] + table[380:390]
        basis_outcome(system, "inverse", 0.3, 1e-12, 60)
        prefix = system.word_basis._prefix
        assert len(prefix.values) == LEAVES - 1
        assert len(prefix.widths) == len(prefix.words) == LEAVES
        reads = []

        class ReadWords(list):
            def __getitem__(self, i):
                reads.append(i)
                return list.__getitem__(self, i)

        prefix.words = ReadWords(prefix.words)
        for y in ys:
            want = outcome(reference_inverse_evaluate, system, y, 1e-12, 60)
            assert basis_outcome(system, "inverse", y, 1e-12, 60) == want, y
        assert len(reads) == len(ys)
        for x in xs:
            want = outcome(reference_evaluate, system, x, 1e-12, 60)
            assert basis_outcome(system, "evaluate", x, 1e-12, 60) == want, x

    def test_nan_node_values_send_y_right(self, monkeypatch):
        # Entries overflow to inf and -inf by level 11, where the node values
        # are NaN (inf - inf): the loop sends every y right there, and the
        # values stored clamped to their lower bound send it right too.  A
        # factor inside the exponent band cannot overflow within the prefix,
        # so this one is left unscaled by a band that holds every float.
        monkeypatch.setattr(_words, "EXPONENT_BAND", 1100)
        grow = MoebiusMatrix(1e30, -1e30, 0.0, 1.0)
        system = types.SimpleNamespace(
            exact=False, word_basis=FloatBasis(grow, grow, 0.5), split_value=0.5,
            zero=lambda: 0.0, one=lambda: 1.0,
        )
        word = system.word_basis.path((0,) * (PREFIX_LEVELS - 1))
        assert math.isnan(reference_value(system.word_basis, word, 0.5))
        for y in (0.3, 0.5, 0.7, -1e300, 1e300, math.nan):
            for max_depth in (PREFIX_LEVELS + 1, 20):
                want = outcome(reference_inverse_evaluate, system, y, 2.0**-14, max_depth)
                assert basis_outcome(system, "inverse", y, 2.0**-14, max_depth) == want, y
        assert len(system.word_basis._prefix.values) == LEAVES - 1

    @pytest.mark.parametrize("flat", descent_systems()[-2:], ids=["lebesgue:0.99", "walk:0.1"])
    def test_node_values_are_clamped_between_their_ancestors(self, flat):
        # Node values of the reference loop, clamped top-down between the
        # stored values of each node's nearest ancestors (-inf and inf past
        # the ends; a NaN to the lower), never decrease and are the values
        # stored, though the reference values themselves decrease.
        basis = flat.word_basis
        inverse_evaluate(flat, 0.3, 1e-12)
        raw, level = {}, [basis.identity]
        for k in range(PREFIX_LEVELS):
            s = LEAVES >> k + 1
            for j, word in enumerate(level):
                raw[(2 * j + 1) * s - 1] = reference_value(basis, word, basis.split)
            level = [basis.step(word, digit, k + 1) for word in level for digit in (0, 1)]
        want = [None] * (LEAVES - 1)

        def store(index, s, lo, hi):
            v = raw[index]
            want[index] = lo if math.isnan(v) else min(max(v, lo), hi)
            if s > 1:
                store(index - s // 2, s // 2, lo, want[index])
                store(index + s // 2, s // 2, want[index], hi)

        store(LEAVES // 2 - 1, LEAVES // 2, -math.inf, math.inf)
        values = [raw[i] for i in range(LEAVES - 1)]
        assert any(map(operator.gt, values, values[1:]))
        assert not any(map(operator.gt, want, want[1:]))
        assert list(map(bits_of, flat.word_basis._prefix.values)) == list(map(bits_of, want))

    def test_jump_edge_at_a_leaf_width(self):
        # evaluate jumps only at 2*tol < 1/LEAVES and where every width on
        # the leaf's path is above 2*tol: at 2*tol equal to the smallest,
        # the loop returns in the top.  The narrowest leaf is below 1/LEAVES.
        for system in descent_systems():
            basis = system.word_basis
            evaluate(system, 0.3, 1e-12)
            widths = basis._prefix.widths
            narrowest = widths.index(min(widths))
            assert widths[narrowest] < 1 / LEAVES
            for i in (0, 5, 2048, 3000, LEAVES - 1, narrowest):
                x = (i + 0.5) / LEAVES
                for two_tol in (widths[i], math.nextafter(widths[i], 0.0)):
                    tol = two_tol / 2
                    want = outcome(reference_evaluate, system, x, tol, 60)
                    assert basis_outcome(system, "evaluate", x, tol, 60) == want, (i, tol)

    def test_rescaling_raises_as_unit_scaled(self, monkeypatch):
        # An infinite entry, which no band scaling changes, makes every word
        # non-finite (0 * inf is NaN) with no pole raised on the way, and the
        # prefix keeps nothing.  Entries of 1e25 are scaled into the band,
        # where no word leaves float range; left unscaled, they pass it by
        # depth 16, after a jump.  Either way the rescaling raises
        # _unit_scaled's ZeroMatrixError, as the reference loop does.
        for entry, band, jumps in ((math.inf, EXPONENT_BAND, False), (1e25, 1100, True)):
            monkeypatch.setattr(_words, "EXPONENT_BAND", band)
            grow = MoebiusMatrix(entry, 0.0, 0.0, 1.0)
            system = types.SimpleNamespace(
                exact=False, word_basis=FloatBasis(grow, grow, 0.5), split_value=0.5,
                zero=lambda: 0.0, one=lambda: 1.0,
            )
            for op, ref in REFERENCES:
                for max_depth in (PREFIX_LEVELS, 20):
                    want = outcome(ref, system, 0.3, 1e-12, max_depth)
                    assert basis_outcome(system, op, 0.3, 1e-12, max_depth) == want
                assert want[:2] == ("ZeroMatrixError", "cannot renormalize a non-finite matrix")
            assert bool(system.word_basis._prefix.words) == jumps

    def test_exact_basis_never_builds_the_prefix(self):
        for system in (walk_system(1), walk_system(Fraction(3, 7))) + tuple(systems(2, 9)):
            for z in (Fraction(1, 3), Fraction(5, 7)):
                evaluate(system, z, 1e-12)
                inverse_evaluate(system, z, 1e-12)
            assert not hasattr(system.word_basis, "_prefix")


REFERENCES = (("evaluate", reference_evaluate), ("inverse", reference_inverse_evaluate))


def basis_descent(basis, op):
    """A basis's descent as a function of (z, tol, max_depth) that returns
    the result or raises what the public call raises."""

    def descend(z, tol, max_depth):
        if op == "evaluate":
            value, depth, width = basis.evaluate(z, tol, max_depth)
            message = f"enclosure width above 2*tol = {2 * tol} after {max_depth} digits"
        else:
            value, depth, width = basis.inverse(z, tol, max_depth)
            message = f"no convergence to tol = {tol} in {max_depth} steps"
        if value is None:
            raise NonConvergenceError(message, depth=depth, width=width)
        return value

    return descend


def basis_outcome(system, op, z, tol, max_depth):
    """outcome() of the system's own descent at z, also where the public
    calls refuse z (NaN, infinities) or answer without descending."""
    descend = basis_descent(system.word_basis, op)
    return outcome(descend, z, tol, max_depth)


def test_level_pole_check_reads_the_extremes_then_every_value():
    # c*z + d = 1 - 2z: the extremes 0 and 1 straddle the pole at 1/2, so
    # each value is checked; only a value at the pole raises.
    m = MoebiusMatrix(1.0, 0.0, -2.0, 1.0)
    basis = FloatBasis(m, m, 0.5)
    _Floats(basis, [0.0, 0.25, 1.0]).check_poles(0.0, 1.0)
    with pytest.raises(PoleError, match="^denominator 0.0 within pole tolerance 2e-15$"):
        _Floats(basis, [0.0, 0.5, 1.0]).check_poles(0.0, 1.0)
    # Extremes on one side of the pole, beyond its tolerance, vouch for
    # every value: the value at the pole is not read.
    _Floats(basis, [0.5]).check_poles(0.0, 0.25)


def test_single_path_use_does_not_load_numpy():
    code = (
        "import sys; from fractions import Fraction; import derham_lft as dl; "
        "s = dl.walk_system(1); dl.evaluate(s, Fraction(1, 3), 1e-12); "
        "dl.inverse_evaluate(dl.walk_system(0.5), 0.3, 1e-12); "
        "dl.evaluate(dl.walk_system(0.5), 0.3, 1e-12); "
        "dl.dyadic_value_table(s, 6); list(dl.walk_tree(s, 4)); "
        "dl.dyadic_value_table(dl.walk_system(0.5), 12); "
        "print('numpy' in sys.modules, 'derham_lft._kernels' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "False False\n"

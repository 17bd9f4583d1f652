"""The word-product sweep against a reference fold of the public
mat_mul / renormalize primitives."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from derham_lft import (
    MoebiusMatrix,
    PoleError,
    apply_mobius,
    dyadic_enclosure,
    dyadic_value_table,
    force_approx,
    identity_matrix,
    interval_measure,
    mass_from_word,
    mat_mul,
    ratio_state,
    renormalize,
    walk_system,
    walk_tree,
    word_matrix,
)
from derham_lft._words import BLOCK_LEVELS, RENORM_EVERY, WordBasis
from helpers import random_valid_system


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
            (block,) = basis.blocks(depth)
            values = basis.values(block, 0)
            masses = basis.masses(block)
            assert len(block) == 1 << depth
            for j, word in enumerate(block):
                ref = reference_word(system, address(j, depth))
                assert values[j] == apply_mobius(ref, 0)
                assert isinstance(values[j], Fraction)
                assert masses[j] == mass_from_word(ref)
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
            blocks = list(system.word_basis.blocks(depth))
            assert all(len(block) == width for block in blocks)
            leaves = np.concatenate(blocks)
            for j in sorted(picks):
                ref = reference_word(system, address(j, depth))
                assert list(map(bits_of, leaves[j])) == list(map(bits_of, ref.entries))

    def test_level_sweeps_equal_path_reads_at_depth_18(self):
        # Table values and level masses against one-path reads of the
        # full-length address (value_at_dyadic reads the terminating
        # address, a shorter word with other last bits).
        depth = 18
        width = 1 << BLOCK_LEVELS
        rng = random.Random(18)
        picks = {0, (1 << depth) - 1}
        for k in range(1, 1 << (depth - BLOCK_LEVELS)):
            picks |= {k * width - 1, k * width}
        picks |= {rng.randrange(1 << depth) for _ in range(200)}
        floats = [force_approx(s) for s in systems(2, 16)]
        floats += [force_approx(walk_system(1)), walk_system(0.5), walk_system(0.3)]
        for system in floats:
            basis = system.word_basis
            table = dyadic_value_table(system, depth)
            masses = np.concatenate([basis.masses(block) for block in basis.blocks(depth)])
            for j in sorted(picks):
                bits = address(j, depth)
                assert bits_of(table[j]) == bits_of(dyadic_enclosure(system, bits).lower)
                assert bits_of(masses[j]) == bits_of(interval_measure(system, bits))

    def test_word_matrix_bit_identical(self):
        rng = random.Random(6)
        system = force_approx(systems(1, 14)[0])
        for _ in range(30):
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 50)))
            got = word_matrix(system, bits).entries
            assert list(map(bits_of, got)) == list(map(bits_of, reference_word(system, bits).entries))


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
    basis = WordBasis(pole, pole, exact)
    (level,) = basis.blocks(1)
    one = Fraction(1) if exact else 1.0
    with pytest.raises(PoleError):
        basis.values(level, one)
    with pytest.raises(PoleError):
        basis.value(basis.path((0,)), one)
    with pytest.raises(PoleError):
        basis.cell_terms(level, one)
    # The identity word's value at 1 is finite; A0' and A1' have the pole.
    identity = [basis.identity] if exact else np.array([basis.identity])
    with pytest.raises(PoleError):
        basis.cell_terms(identity, one)


def test_single_path_use_does_not_load_numpy():
    code = (
        "import sys; from fractions import Fraction; import derham_lft as dl; "
        "s = dl.walk_system(1); dl.evaluate(s, Fraction(1, 3), 1e-12); "
        "dl.inverse_evaluate(dl.walk_system(0.5), 0.3, 1e-12); "
        "dl.dyadic_value_table(s, 6); list(dl.walk_tree(s, 4)); "
        "print('numpy' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"

"""Shared test utilities: random admissible systems and independent oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from derham_lft import (
    DeRhamSystem,
    MoebiusMatrix,
    NonConvergenceError,
    ac_conditions,
    apply_mobius,
    validate,
)
from derham_lft._words import ExactBasis
from derham_lft.numerics import _check_pole
from derham_lft.solution import MAX_DEPTH


def fraction_between(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi)."""
    den = rng.choice([7, 11, 16, 23, 32, 51, 64])
    num = rng.randint(1, den - 1)
    return lo + (hi - lo) * Fraction(num, den)


def random_valid_system(rng, require_digit0_fails: bool = False, scaled: bool = False) -> DeRhamSystem:
    """Sample an exact admissible pair.

    Parameterization: pick the common boundary value v = A0(1) in (0, 1),
    then c0 in (v-1, 1/v-1) and c1 in (-v, v/(1-v)); with d0 = d1 = 1,
    a0 = v*(c0+1), b1 = v, a1 = c1+1-v every admissibility condition
    holds by construction (checked by validate anyway).
    """
    while True:
        den = rng.choice([5, 7, 9, 12, 17, 24, 31])
        v = Fraction(rng.randint(1, den - 1), den)
        c0 = fraction_between(rng, v - 1, 1 / v - 1)
        c1 = fraction_between(rng, -v, v / (1 - v))
        a0 = MoebiusMatrix(v * (c0 + 1), 0, c0, 1)
        a1 = MoebiusMatrix(c1 + 1 - v, v, c1, 1)
        if scaled:
            a0 = a0.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            a1 = a1.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        system = validate(a0, a1)
        if require_digit0_fails and ac_conditions(system)[0]:
            continue
        return system


def transposed_step(system: DeRhamSystem, t, digit: int):
    """One ratio-state update t -> (a*t + c)/(b*t + d) for the digit's
    matrix: the fold that measure.ratio_state and the sampling loops
    must agree with."""
    a, b, c, d = system.matrix(digit).entries
    return (a * t + c) / (b * t + d)


def philox_uniforms(seed: int, n: int) -> np.ndarray:
    """The first n uniforms of the seed's stream, drawn by numpy alone:
    the oracle for the positioned draw of measure._uniforms."""
    return np.random.Generator(np.random.Philox(seed)).random(n)


def draw_from(u: np.ndarray):
    """A fill_path draw, draw(start, out), over the fixed uniforms u."""

    def draw(start: int, out: np.ndarray) -> None:
        out[:] = u[start : start + len(out)]

    return draw


def coin_distribution(p: Fraction, k: int, depth: int) -> Fraction:
    """Independent oracle for the lebesgue family: the solution at k/2**depth
    is the probability that a biased-coin binary expansion is below it,
    i.e. the sum over j < k of p**(zeros of j) * (1-p)**(ones of j)."""
    total = Fraction(0)
    for j in range(k):
        ones = bin(j).count("1")
        total += (1 - p) ** ones * p ** (depth - ones)
    return total


def iterate_functional_equation(system: DeRhamSystem, depth: int, sweeps: int = 60):
    """Independent fixed-point oracle on the grid j/2**depth.

    Starts from the identity and repeatedly applies the two-branch
    operator; both branch maps are strict contractions on [0, 1], so the
    iterates converge geometrically to the unique solution.  Doubling
    maps the grid onto itself, so no interpolation is involved.
    """
    n = 1 << depth
    h = [j / n for j in range(n + 1)]
    a0 = MoebiusMatrix(*(float(e) for e in system.A0.entries))
    a1 = MoebiusMatrix(*(float(e) for e in system.A1.entries))
    for _ in range(sweeps):
        nxt = [0.0] * (n + 1)
        for j in range(n + 1):
            if 2 * j <= n:
                nxt[j] = apply_mobius(a0, h[2 * j])
            else:
                nxt[j] = apply_mobius(a1, h[2 * j - n])
        h = nxt
    return h


def reference_value(basis, word, z):
    """The word's map at z, (a*z + b)/(c*z + d), with the pole check of
    numerics.apply_mobius, in either mode: the unfused read of a word."""
    if isinstance(basis, ExactBasis):
        return basis.value(word, z)
    a, b, c, d = word
    den = c * z + d
    _check_pole(den, c, d)
    return (a * z + b) / den


def reference_evaluate(system, x, tol, max_depth=MAX_DEPTH):
    """evaluate at x in (0, 1) of a float system, or at a non-dyadic x of an
    exact one, as a loop over WordBasis.step and reference_value: the oracle
    for the fused descents of _words."""
    y = Fraction(x) if system.exact else float(x)
    basis = system.word_basis
    word = basis.identity
    depth = 0
    width = system.one()
    while depth < max_depth:
        y = y * 2
        if y >= 1:
            digit = 1
            y = y - 1
        else:
            digit = 0
        depth += 1
        word = basis.step(word, digit, depth)
        lower = reference_value(basis, word, 0)
        upper = reference_value(basis, word, 1)
        width = upper - lower
        if width <= 2 * tol:
            return (lower + upper) / 2
    raise NonConvergenceError(
        f"enclosure width above 2*tol = {2 * tol} after {max_depth} digits",
        depth=depth,
        width=width,
    )


def reference_inverse_evaluate(system, y, tol, max_depth=MAX_DEPTH, split=None):
    """inverse_evaluate at y in (0, 1) as a loop over WordBasis.step and
    reference_value, splitting each node at `split` (default f(1/2)): the
    oracle for the fused descents of _words."""
    split = system.split_value if split is None else split
    basis = system.word_basis
    word = basis.identity
    x_lo = system.zero()
    half = system.one() / 2
    depth = 0
    while depth < max_depth:
        mid_value = reference_value(basis, word, split)
        if system.exact and y == mid_value:
            return x_lo + half
        if y < mid_value:
            digit = 0
        else:
            digit = 1
            x_lo = x_lo + half
        depth += 1
        word = basis.step(word, digit, depth)
        half = half / 2
        if half <= tol:
            return x_lo + half
    raise NonConvergenceError(
        f"no convergence to tol = {tol} in {max_depth} steps", depth=depth, width=2 * half
    )

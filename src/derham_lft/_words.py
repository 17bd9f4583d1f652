"""Word products A_{i1} @ ... @ A_{in}, a whole tree level or one path at a time.

Every enclosure, interval mass and ratio state of f is read off the word
products of dyadic addresses.  This module owns their representation.

* Exact mode.  A0 and A1 are scaled once to coprime integer matrices
  M_i (``renormalize``), so A_i = k_i * M_i with rational k_i > 0.  A word
  is a 4-tuple of Python ints, the product of the M_i.  Map values,
  masses and ratio states are invariant under positive scaling, so they
  are read off the integer word and a Fraction is built only for the
  result; `literal` multiplies k0**n0 * k1**n1 back in when the product
  itself is wanted.
* Float mode.  A word is a 4-tuple of floats and a tree level is a
  (2**k, 4) float64 array, the children of each row interleaved so rows
  stay in address order.  Entries are formed in the same order as
  ``numerics.mat_mul``, and every RENORM_EVERY-th product divides by the
  largest entry magnitude like ``numerics.renormalize``, so the float
  bits equal those of a mat_mul / renormalize fold.

A level is never wider than 2**BLOCK_LEVELS rows: deeper sweeps run one
block of 2**BLOCK_LEVELS rows under each prefix, in address order.  Per
row, a level gives masses, float map values and the doubling-map
quadrature's cell terms (`cell_terms`), so no caller unpacks a word or
the integer factors.

Values of f at dyadic points need no word: de Rham's equation
f(x/2) = A0(f(x)), f((x+1)/2) = A1(f(x)) gives f at an address as
A_{i1}(A_{i2}(... A_{in}(0))), its digits applied right to left, one map
per digit (`image`), and the values at depth k + 1 as A0 of those at
depth k followed by A1 of them (`table`).  Exact mode maps homogeneous
integer pairs (p, q) of p/q by the M_i, the pair W @ (0, 1) of the word,
so the values equal the words' exactly; float mode maps Python floats.

numpy is imported only where float levels are formed, so exact-mode and
single-path use of the package, and float value tables, never load it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError, PoleError, ZeroMatrixError
from .numerics import POLE_RTOL, MoebiusMatrix, Scalar, _check_pole, _unit_scaled, renormalize

#: Float word products are rescaled after this many multiplications;
#: entries otherwise grow or shrink geometrically.
RENORM_EVERY = 16

#: Levels wider than 2**BLOCK_LEVELS rows are swept block by block.
BLOCK_LEVELS = 16

#: Deepest tree level a sweep may be asked for (4M leaves).
MAX_SWEEP_DEPTH = 22

if TYPE_CHECKING:
    import numpy as np

Word = tuple  # (a, b, c, d) of ints (exact mode) or floats

Bits = tuple[int, ...]  # a dyadic address, most significant digit first


def check_bits(bits: Bits) -> None:
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"address digits must be 0 or 1, got {bits!r}")


class WordBasis:
    """The pair (A0, A1) as the factors of word products."""

    __slots__ = ("exact", "m0", "m1", "k0", "k1", "dets", "identity")

    def __init__(self, a0: MoebiusMatrix, a1: MoebiusMatrix, exact: bool):
        self.exact = exact
        if exact:
            self.m0, self.k0 = _integer_factor(a0)
            self.m1, self.k1 = _integer_factor(a1)
            self.dets = tuple(m[0] * m[3] - m[1] * m[2] for m in (self.m0, self.m1))
            self.identity = (1, 0, 0, 1)
        else:
            self.m0, self.m1 = a0.entries, a1.entries
            self.dets = (a0.det(), a1.det())
            self.identity = (1.0, 0.0, 0.0, 1.0)

    # -- one path ------------------------------------------------------

    def step(self, word: Word, digit: int, n: int) -> Word:
        """word @ A_digit as the n-th product of its word."""
        a, b, c, d = word
        p, q, r, s = self.m1 if digit else self.m0
        word = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        if not self.exact and n % RENORM_EVERY == 0:
            word = _unit_scaled(word)
        return word

    def path(self, bits) -> Word:
        """Word product of the address."""
        word = self.identity
        for n, digit in enumerate(bits, start=1):
            word = self.step(word, digit, n)
        return word

    def value(self, word: Word, z: Scalar) -> Scalar:
        """The word's map at z, (a*z + b)/(c*z + d), with the pole check of
        ``numerics.apply_mobius``."""
        a, b, c, d = word
        if self.exact:
            p, q = z.numerator, z.denominator
            den = c * p + d * q
            _check_pole(den, c, d)
            return Fraction(a * p + b * q, den)
        den = c * z + d
        _check_pole(den, c, d)
        return (a * z + b) / den

    def mass(self, word: Word) -> Scalar:
        """Interval mass (a*d - b*c)/(d*(c + d)), as ``measure.mass_from_word``."""
        a, b, c, d = word
        if self.exact:
            return Fraction(a * d - b * c, d * (c + d))
        return (a * d - b * c) / (d * (c + d))

    def state(self, word: Word) -> Scalar:
        """Ratio state c/d, the bottom row of the word, as ``measure.ratio_state``."""
        _, _, c, d = word
        if self.exact:
            return Fraction(c, d)
        return c / d

    def literal(self, word: Word, n0: int, n1: int) -> MoebiusMatrix:
        """The word as the literal product of n0 factors A0 and n1 factors A1."""
        if not self.exact:
            return MoebiusMatrix(*word)
        scale = self.k0**n0 * self.k1**n1
        return MoebiusMatrix(*(scale * e for e in word))

    def image(self, bits: Bits, z: Scalar) -> Scalar:
        """A_{i1}(A_{i2}(... A_{in}(z))), the address's word at z, one map per
        digit from the last, with the operations of `table`: in exact mode on
        the pair (p, q) of z, with one Fraction and the pole check of
        `value` at the end; in float mode with ``numerics.apply_mobius``'s
        pole check at every map."""
        if self.exact:
            p, q = z.numerator, z.denominator
            for digit in reversed(bits):
                a, b, c, d = self.m1 if digit else self.m0
                p, q = a * p + b * q, c * p + d * q
            return _fraction(p, q)
        for digit in reversed(bits):
            a, b, c, d = self.m1 if digit else self.m0
            den = c * z + d
            _check_pole(den, c, d)
            z = (a * z + b) / den
        return z

    def table(self, depth: int) -> list:
        """`image` at 0 of every address at `depth`, in address order: from
        [0], each level is A0 of the level before followed by A1 of it.

        The levels share one list of the final length: a block of at most
        2**BLOCK_LEVELS values of the level is mapped by A1 into the second
        half and by A0 onto itself, so no level is copied.  Exact mode maps
        the pairs (p, q) and forms the Fractions from the last block back,
        freeing pairs as it goes."""
        width = 1 << BLOCK_LEVELS
        (a0, b0, c0, d0), (a1, b1, c1, d1) = self.m0, self.m1
        if self.exact:
            ps, qs = [0] * (1 << depth), [1] * (1 << depth)
            for n, s, e in _spans(depth, width):
                low = ps[s:e], qs[s:e]
                ps[n + s : n + e] = [a1 * p + b1 * q for p, q in zip(*low)]
                qs[n + s : n + e] = [c1 * p + d1 * q for p, q in zip(*low)]
                ps[s:e] = [a0 * p + b0 * q for p, q in zip(*low)]
                qs[s:e] = [c0 * p + d0 * q for p, q in zip(*low)]
            for s in reversed(range(0, len(ps), width)):
                ps[s : s + width] = map(_fraction, ps[s : s + width], qs[s:])
                del qs[s:]
            return ps
        zs = [0.0] * (1 << depth)
        for n, s, e in _spans(depth, width):
            low = zs[s:e]
            lo, hi = min(low), max(low)
            _check_level_poles(low, c0, d0, lo, hi)
            _check_level_poles(low, c1, d1, lo, hi)
            zs[n + s : n + e] = [(a1 * z + b1) / (c1 * z + d1) for z in low]
            zs[s:e] = [(a0 * z + b0) / (c0 * z + d0) for z in low]
        return zs

    # -- whole levels --------------------------------------------------

    def blocks(self, depth: int) -> Iterator:
        """The words of every address at `depth` in address order, as
        consecutive blocks of at most 2**BLOCK_LEVELS rows: lists of
        tuples in exact mode, float64 arrays of shape (rows, 4) otherwise."""
        if self.exact:
            root = [self.identity]
        else:
            import numpy as np

            root = np.array([self.identity])
        top = max(depth - BLOCK_LEVELS, 0)
        prefixes = self._grow(root, 0, top)
        for i in range(len(prefixes)):
            yield self._grow(prefixes[i : i + 1], top, depth)

    def _grow(self, level, start: int, stop: int):
        for n in range(start + 1, stop + 1):
            level = self._children(level, n)
        return level

    def _children(self, level, n: int):
        """The next level, the n-th products, children interleaved."""
        if self.exact:
            p0, q0, r0, s0 = self.m0
            p1, q1, r1, s1 = self.m1
            out = []
            for a, b, c, d in level:
                out += (
                    (a * p0 + b * r0, a * q0 + b * s0, c * p0 + d * r0, c * q0 + d * s0),
                    (a * p1 + b * r1, a * q1 + b * s1, c * p1 + d * r1, c * q1 + d * s1),
                )
            return out
        import numpy as np

        a, b, c, d = level.T
        out = np.empty((len(level), 2, 4))
        for digit, (p, q, r, s) in enumerate((self.m0, self.m1)):
            child = out[:, digit]
            child[:, 0] = a * p + b * r
            child[:, 1] = a * q + b * s
            child[:, 2] = c * p + d * r
            child[:, 3] = c * q + d * s
        out = out.reshape(-1, 4)
        if n % RENORM_EVERY == 0:
            top = np.abs(out).max(axis=1)
            if not top.all():
                raise ZeroMatrixError("cannot renormalize the zero matrix")
            if not np.isfinite(top).all():
                raise ZeroMatrixError("cannot renormalize a non-finite matrix")
            out /= top[:, None]
        return out

    def values(self, level: np.ndarray, z: float) -> np.ndarray:
        """`value` at z for every row of a float level."""
        a, b, c, d = level.T
        den = c * z + d
        _check_poles(den, c, d)
        return (a * z + b) / den

    def masses(self, level):
        """Interval mass (a*d - b*c)/(d*(c + d)) of every row, as in
        ``measure.mass_from_word``."""
        if self.exact:
            return [Fraction(a * d - b * c, d * (c + d)) for a, b, c, d in level]
        a, b, c, d = level.T
        den = d * (c + d)
        if not den.all():
            raise ZeroDivisionError("float division by zero")
        return (a * d - b * c) / den

    def cell_terms(self, level, z: Scalar):
        """(A0' + A1')(w) * mass of every row, w the row's value at z, as
        ``numerics.mobius_derivative`` and `masses`: one Fraction per row,
        formed from the integer word on a common denominator, or a float64
        array of values x derivatives x masses."""
        if not self.exact:
            w = self.values(level, z)
            slopes = []
            for (_, _, c, d), det in zip((self.m0, self.m1), self.dets):
                den = c * w + d
                _check_poles(den, c, d)
                slopes.append(det / (den * den))
            return (slopes[0] + slopes[1]) * self.masses(level)
        p, q = z.numerator, z.denominator
        (_, _, c0, d0), (_, _, c1, d1) = self.m0, self.m1
        det0, det1 = self.dets
        terms = []
        for a, b, c, d in level:
            wn, wd = a * p + b * q, c * p + d * q  # w = wn/wd
            den0, den1 = c0 * wn + d0 * wd, c1 * wn + d1 * wd  # A_i'(w) = det_i*wd**2/den_i**2
            if not (wd and den0 and den1):
                raise PoleError("exact denominator c*z + d is zero")
            sq0, sq1 = den0 * den0, den1 * den1
            top = wd * wd * (det0 * sq1 + det1 * sq0) * (a * d - b * c)
            terms.append(Fraction(top, sq0 * sq1 * d * (c + d)))
        return terms

    def entry_bits(self) -> int:
        """Bit length of the largest entry of the integer factors (exact mode)."""
        return max(abs(e).bit_length() for e in self.m0 + self.m1)


def _check_poles(den: np.ndarray, c, d) -> None:
    """``numerics._check_pole`` for every entry of a float array."""
    import numpy as np

    c, d = np.broadcast_to(c, den.shape), np.broadcast_to(d, den.shape)
    scale = np.maximum(np.maximum(np.abs(c), np.abs(d)), 1.0)
    bad = np.flatnonzero(np.abs(den) <= POLE_RTOL * scale)
    if bad.size:
        i = bad[0]
        _check_pole(float(den[i]), float(c[i]), float(d[i]))


def _spans(depth: int, width: int) -> Iterator[tuple[int, int, int]]:
    """(n, s, e) for each block [s, e) of at most `width` values of the
    levels of n = 2**k values, k < depth."""
    for k in range(depth):
        n = 1 << k
        for s in range(0, n, width):
            yield n, s, min(s + width, n)


def _fraction(p: int, q: int) -> Fraction:
    """p/q, with the pole check of an exact ``numerics.apply_mobius``."""
    if not q:
        raise PoleError("exact denominator c*z + d is zero")
    return Fraction(p, q)


def _check_level_poles(zs: list, c: float, d: float, lo: float, hi: float) -> None:
    """``numerics._check_pole`` of c*z + d for every float z in zs, lo and hi
    their least and greatest.  Rounding is monotone, so c*z + d lies between
    its values at lo and hi; only a range that reaches the pole's tolerance
    is checked value by value."""
    tol = POLE_RTOL * max(abs(c), abs(d), 1.0)
    ends = c * lo + d, c * hi + d
    if min(ends) > tol or max(ends) < -tol:
        return
    for z in zs:
        _check_pole(c * z + d, c, d)


def _integer_factor(m: MoebiusMatrix) -> tuple[Word, Fraction]:
    """(M, k) with M the coprime integer matrix of m and m = k * M."""
    ints = tuple(int(e) for e in renormalize(m).entries)
    k = next(Fraction(e) / i for e, i in zip(m.entries, ints) if i)
    return ints, k

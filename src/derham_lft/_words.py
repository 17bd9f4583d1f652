"""Word products A_{i1} @ ... @ A_{in} along one path, the point-query
descents, and value tables of f.

Interval masses and ratio states of f are read off the word products
of dyadic addresses, and `evaluate` and `inverse_evaluate` descend the
tree on them; enclosures and value tables apply one map per digit from
the last (`image`, `table`).  This module owns all of these, in one
`WordBasis` class per scalar mode; ``DeRhamSystem.word_basis`` picks the
class once.

* Exact mode (`ExactBasis`).  A0 and A1 are scaled once to coprime
  integer matrices M_i (``renormalize``), so A_i = k_i * M_i with
  rational k_i > 0.  A word is a 4-tuple of Python ints, the product of
  the M_i.  Map values, masses and ratio states are invariant under
  positive scaling, so they are read off the integer word and a Fraction
  is built only for the result; `literal` multiplies k0**n0 * k1**n1
  back in when the product itself is wanted.
* Float mode (`FloatBasis`).  A word is a 4-tuple of floats.  Entries
  are formed in the same order as ``numerics.mat_mul``, and every
  RENORM_EVERY-th product divides by the largest entry magnitude like
  ``numerics.renormalize``, so the float bits equal those of a mat_mul /
  renormalize fold.  A factor whose largest entry lies outside
  2**+-EXPONENT_BAND is first scaled by a power of two (`_in_band`):
  exact, so every map, mass and state keeps its bits, while RENORM_EVERY
  products of such factors stay in the float range.

Each class has its own descents (`evaluate`, `inverse`).  The exact loops
step integer words and read each node as a Fraction.  The float loops
keep the word in four local floats, multiply and rescale them as `step`
does, and read each node with ``numerics.apply_mobius``'s operations;
``numerics._check_pole`` runs only where a cheap bound cannot rule the
pole out, so results and PoleErrors are those of the loop over `step`,
bit for bit.  The bounds, like ``numerics.POLE_RTOL``'s test, are
relative to the word's entries with no absolute floor, so scaling A0 and
A1 changes no result.

The top PREFIX_LEVELS levels of the tree are the same for every query,
so a float basis forms them once, in one pass, with the loops' own
operations and at its split f(1/2), on its first descent below them at
tol < 2**-(PREFIX_LEVELS + 1) (`_Prefix`).  A float descent at such a
tol then starts at depth PREFIX_LEVELS from the leaf of its first
digits: `evaluate` where no enclosure on that leaf's path is within
2*tol, `inverse` at the leaf that bisecting the in-order node values
gives, each stored clamped between its nearest ancestors' so that none
decreases (float f can be flat).  Both run from the root instead where
a top node fails either loop's pole bound.

Values of f at dyadic points need no word: de Rham's equation
f(x/2) = A0(f(x)), f((x+1)/2) = A1(f(x)) gives f at an address as
A_{i1}(A_{i2}(... A_{in}(0))), one map per digit from the last (`image`),
and the values at depth k + 1 as A0 of those at depth k followed by A1 of
them (`table`).  Only the table classes tell their formats apart: `_Pairs`
maps integer pairs (p, q) of p/q by the M_i, the words' W @ (0, 1), and
`_Floats` Python floats, or `_Array`, past 2**ARRAY_LEVELS values, float64
arrays with the same bits; numpy is imported only to build an `_Array`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import frexp, inf, ldexp
from operator import add, lt, mul, truediv

from . import numerics
from .errors import PoleError
from .numerics import Bits, MoebiusMatrix, Scalar, _check_pole, _unit_scaled, renormalize

#: Float word products are rescaled after this many multiplications;
#: entries otherwise grow or shrink geometrically.
RENORM_EVERY = 16

#: A float factor whose largest entry has a binary exponent (math.frexp)
#: beyond +-EXPONENT_BAND is scaled by a power of two to one in [1/2, 1):
#: RENORM_EVERY products of factors inside the band stay in float range.
EXPONENT_BAND = 16

#: Float descents jump the top PREFIX_LEVELS levels of the word tree, read
#: from the basis's `_Prefix` of 2**PREFIX_LEVELS leaves (1.1 MB per basis).
PREFIX_LEVELS = 12

LEAVES = 1 << PREFIX_LEVELS

#: Table levels wider than 2**BLOCK_LEVELS values are mapped block by block.
BLOCK_LEVELS = 16

#: Float tables of more than 2**ARRAY_LEVELS values are float64 arrays.
#: In process on a 2-core Xeon, walk:0.5 took 0.094 s as Python floats
#: and 0.003 s as an array at depth 18, 0.39 s and 0.012 s at depth 20;
#: the first array also imports numpy, about 0.12 s.
ARRAY_LEVELS = 17

Word = tuple  # (a, b, c, d) of ints (exact mode) or floats


class WordBasis:
    """The pair (A0, A1) as the factors `m0`, `m1` of word products, with
    their determinants `dets` and the `split`, the point f(1/2) = A0(1) at
    which `inverse` reads each node's word.  A subclass per scalar mode
    gives the `identity` word, the quotient `div`, the scales k_i of
    A_i = k_i * M_i, `step`, `image`, the point-query descents `evaluate`
    and `inverse`, and `_ends`, the table of n + 1 values that `table`
    fills, f(0) = 0 first and f(1) = 1 last."""

    __slots__ = ("split", "m0", "m1", "dets")

    def __init__(self, m0: Word, m1: Word, split: Scalar):
        self.m0, self.m1, self.split = m0, m1, split
        self.dets = tuple(a * d - b * c for a, b, c, d in (m0, m1))

    # -- one path ------------------------------------------------------

    def path(self, bits) -> Word:
        """Word product of the address."""
        word = self.identity
        for n, digit in enumerate(bits, start=1):
            word = self.step(word, digit, n)
        return word

    def mass(self, word: Word) -> Scalar:
        """Interval mass (a*d - b*c)/(d*(c + d)), as ``measure.mass_from_word``."""
        a, b, c, d = word
        return self.div(a * d - b * c, d * (c + d))

    def state(self, word: Word) -> Scalar:
        """Ratio state c/d, the bottom row of the word, as ``measure.ratio_state``."""
        _, _, c, d = word
        return self.div(c, d)

    def literal(self, word: Word, n0: int, n1: int) -> MoebiusMatrix:
        """The word as the literal product of n0 factors A0 and n1 factors A1."""
        scale = self.k0**n0 * self.k1**n1
        return MoebiusMatrix(*(scale * e for e in word))

    def table(self, depth: int) -> _Table:
        """f(j / 2**depth) for j = 0 .. 2**depth: `image` at 0 of every
        address at `depth`, in address order, then f(1) = 1.  From [0], each
        level is A0 of the level before followed by A1 of it, in one table of
        the final length: a block of at most 2**BLOCK_LEVELS values of the
        level is mapped by A1 into the second half and by A0 onto itself."""
        width = 1 << BLOCK_LEVELS
        table = self._ends(1 << depth)
        for size in (1 << k for k in range(depth)):
            for s in range(0, size, width):
                table.double(size, s, min(s + width, size))
        return table

    # Each subclass's point-query descents, `evaluate` and `inverse`,
    # return (result, depth, width), the digits read and the width of
    # the last enclosure; result is None when max_depth digits did not
    # reach tol, and the caller raises NonConvergenceError.


class ExactBasis(WordBasis):
    """Exact mode: the coprime integer factors M_i, with A_i = k_i * M_i."""

    __slots__ = ("k0", "k1")

    identity = (1, 0, 0, 1)
    div = Fraction

    def __init__(self, a0: MoebiusMatrix, a1: MoebiusMatrix, split: Scalar):
        (m0, self.k0), (m1, self.k1) = _integer_factor(a0), _integer_factor(a1)
        super().__init__(m0, m1, split)

    def step(self, word: Word, digit: int, n: int) -> Word:
        """word @ M_digit as the n-th product of its word."""
        a, b, c, d = word
        p, q, r, s = self.m1 if digit else self.m0
        return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)

    def value(self, word: Word, z: Scalar) -> Fraction:
        """The integer word's map at the rational z, (a*z + b)/(c*z + d), with
        the pole check of an exact ``numerics.apply_mobius``."""
        a, b, c, d = word
        p, q = z.numerator, z.denominator
        return _fraction(a * p + b * q, c * p + d * q)

    def image(self, bits: Bits, z: Scalar) -> Fraction:
        """A_{i1}(A_{i2}(... A_{in}(z))), the address's word at z, one map per
        digit from the last, with the operations of `table`: on the pair
        (p, q) of z, with one Fraction and the pole check of `value` at the
        end."""
        p, q = z.numerator, z.denominator
        for digit in reversed(bits):
            a, b, c, d = self.m1 if digit else self.m0
            p, q = a * p + b * q, c * p + d * q
        return _fraction(p, q)

    def _ends(self, n: int) -> _Pairs:
        return _Pairs(self, [0] * n + [1], [1] * (n + 1))

    def evaluate(self, y: Fraction, tol, max_depth: int):
        """``solution.evaluate``'s descent to the digits of y in (0, 1): the
        midpoint of the first enclosure [W(0), W(1)] no wider than 2*tol."""
        word = self.identity
        depth = 0
        width = Fraction(1)
        while depth < max_depth:
            y = y * 2
            if y >= 1:
                digit = 1
                y = y - 1
            else:
                digit = 0
            depth += 1
            word = self.step(word, digit, depth)
            lower = self.value(word, 0)
            upper = self.value(word, 1)
            width = upper - lower
            if width <= 2 * tol:
                return (lower + upper) / 2, depth, width
        return None, depth, width

    def inverse(self, y: Fraction, tol, max_depth: int):
        """``solution.inverse_evaluate``'s descent: at each node, the child
        whose value range holds y, split at the word's value at `split`,
        f(1/2); a y equal to that value returns its dyadic point."""
        split = self.split
        word = self.identity
        x_lo = Fraction(0)
        half = Fraction(1, 2)
        depth = 0
        while depth < max_depth:
            mid_value = self.value(word, split)
            if y == mid_value:
                return x_lo + half, depth, 2 * half
            if y < mid_value:
                digit = 0
            else:
                digit = 1
                x_lo = x_lo + half
            depth += 1
            word = self.step(word, digit, depth)
            half = half / 2
            if half <= tol:  # x is pinned to an interval of width 2*half
                return x_lo + half, depth, 2 * half
        return None, depth, 2 * half

    def entry_bits(self) -> int:
        """Bit length of the largest entry of the integer factors."""
        return max(abs(e).bit_length() for e in self.m0 + self.m1)


class FloatBasis(WordBasis):
    """Float mode: the factors' float entries, each scaled into the band
    (`_in_band`), and the `_Prefix` of the descents, which pickles and
    copies leave out."""

    __slots__ = ("_prefix",)

    identity = (1.0, 0.0, 0.0, 1.0)
    div = truediv
    k0 = k1 = 1.0

    def __init__(self, a0: MoebiusMatrix, a1: MoebiusMatrix, split: Scalar):
        super().__init__(_in_band(a0.entries), _in_band(a1.entries), split)
        self._prefix = None

    def __getstate__(self) -> tuple:
        """No dict, and the slots with `_prefix` None: a clone builds its own."""
        return None, {**{n: getattr(self, n) for n in WordBasis.__slots__}, "_prefix": None}

    def step(self, word: Word, digit: int, n: int) -> Word:
        """word @ A_digit as the n-th product of its word, rescaled every
        RENORM_EVERY-th product."""
        a, b, c, d = word
        p, q, r, s = self.m1 if digit else self.m0
        word = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        if n % RENORM_EVERY == 0:
            word = _unit_scaled(word)
        return word

    def image(self, bits: Bits, z: float) -> float:
        """`ExactBasis.image` in floats, with ``numerics.apply_mobius``'s
        pole check at every map."""
        for digit in reversed(bits):
            a, b, c, d = self.m1 if digit else self.m0
            den = c * z + d
            _check_pole(den, c, d)
            z = (a * z + b) / den
        return z

    def _ends(self, n: int) -> _Floats:
        if n > 1 << ARRAY_LEVELS:
            import numpy as np

            table = _Array(self, np.zeros(n + 1))
            table.zs[n] = 1.0
            return table
        return _Floats(self, [0.0] * n + [1.0])

    def evaluate(self, y: float, tol, max_depth: int):
        """`ExactBasis.evaluate` in floats, fused as the module docstring says:
        bit for bit the loop over `step` reading the word at 0 and 1."""
        (p0, q0, r0, s0), (p1, q1, r1, s1) = self.m0, self.m1
        a, b, c, d = self.identity
        two_tol, two_rtol = 2 * tol, 2 * numerics.POLE_RTOL
        depth = 0
        width = 1.0
        # The leaf widths of an increasing f sum to 1, so at 2*tol below
        # 1/LEAVES some leaf is wider; a coarser tol builds nothing.
        if 0 < y < 1 and max_depth > PREFIX_LEVELS and two_tol < 1 / LEAVES:
            prefix = self._prefix or self._build_prefix()
            i = int(y * LEAVES)  # the first PREFIX_LEVELS digits of y, exactly
            if prefix.words and prefix.widths[i] > two_tol:
                a, b, c, d = prefix.words[i]
                y, depth = y * LEAVES - i, PREFIX_LEVELS
        while depth < max_depth:
            y = y * 2
            if y >= 1:
                y = y - 1
                a, b, c, d = a * p1 + b * r1, a * q1 + b * s1, c * p1 + d * r1, c * q1 + d * s1
            else:
                a, b, c, d = a * p0 + b * r0, a * q0 + b * s0, c * p0 + d * r0, c * q0 + d * s0
            depth += 1
            if depth % RENORM_EVERY == 0:
                a, b, c, d = _unit_scaled((a, b, c, d))
            den0, den1 = c * 0.0 + d, c + d
            # Both above 2*POLE_RTOL*(den0 + den1): then d = den0 > 0,
            # |c| <= den1 + den0 up to rounding, so neither is within
            # POLE_RTOL*max(|c|, |d|), the tolerance _check_pole applies.
            lim = two_rtol * (den0 + den1)
            if not (den0 > lim and den1 > lim):
                _check_pole(den0, c, d)
                _check_pole(den1, c, d)
            lower = (a * 0.0 + b) / den0
            upper = (a + b) / den1
            width = upper - lower
            if width <= two_tol:
                return (lower + upper) / 2, depth, width
        return None, depth, width

    def inverse(self, y, tol, max_depth: int):
        """`ExactBasis.inverse` in floats, with no equality exit, fused as
        `evaluate` is.  An exact y is compared as it is, not cast."""
        (p0, q0, r0, s0), (p1, q1, r1, s1) = self.m0, self.m1
        a, b, c, d = self.identity
        split, rtol = self.split, numerics.POLE_RTOL
        x_lo = 0.0
        half = 0.5
        depth = 0
        if max_depth > PREFIX_LEVELS and tol < 0.5 / LEAVES:
            prefix = self._prefix or self._build_prefix()
            if prefix.words:  # bisect tests the loop's `y < value`
                i = bisect_right(prefix.values, y)
                a, b, c, d = prefix.words[i]
                x_lo, half, depth = i / LEAVES, 0.5 / LEAVES, PREFIX_LEVELS
        while depth < max_depth:
            den = c * split + d
            # With d > 0, POLE_RTOL*(|c| + d) >= POLE_RTOL*max(|c|, |d|).
            if not (d > 0.0 and den > rtol * ((c if c >= 0.0 else -c) + d)):
                _check_pole(den, c, d)
            if y < (a * split + b) / den:
                a, b, c, d = a * p0 + b * r0, a * q0 + b * s0, c * p0 + d * r0, c * q0 + d * s0
            else:
                x_lo = x_lo + half
                a, b, c, d = a * p1 + b * r1, a * q1 + b * s1, c * p1 + d * r1, c * q1 + d * s1
            depth += 1
            if depth % RENORM_EVERY == 0:
                a, b, c, d = _unit_scaled((a, b, c, d))
            half = half / 2
            if half <= tol:  # x is pinned to an interval of width 2*half
                return x_lo + half, depth, 2 * half
        return None, depth, 2 * half

    def _build_prefix(self) -> _Prefix:
        self._prefix = _Prefix(self)
        return self._prefix


class _Prefix:
    """The top PREFIX_LEVELS levels of a float basis's word tree, formed in
    one pass with the float descents' operations in their order (no level
    is rescaled): the `words` of the 2**PREFIX_LEVELS leaves in address
    order; each leaf's smallest enclosure width on its path, the `widths`
    `FloatBasis.evaluate` reads; and the in-order node values at the basis's
    split, each clamped between its nearest ancestors', the `values`
    `FloatBasis.inverse` bisects.  A top node that fails either loop's pole
    bound leaves all three parts []."""

    __slots__ = ("words", "widths", "values")

    def __init__(self, basis: FloatBasis):
        (p0, q0, r0, s0), (p1, q1, r1, s1) = basis.m0, basis.m1
        split, rtol = basis.split, numerics.POLE_RTOL
        self.words, self.widths, self.values = [], [], []
        words, widths, values = [basis.identity], [inf], [0.0] * (LEAVES - 1)
        for k in range(PREFIX_LEVELS):
            dens = [c * split + d for _, _, c, d in words]
            if not all([d > 0.0 and den > rtol * ((c if c >= 0.0 else -c) + d)
                        for (_, _, c, d), den in zip(words, dens)]):
                return
            # Node j of level k is in-order value (2j + 1) * s - 1, between its
            # nearest ancestors at -s and +s (-inf, inf past the ends): each y
            # that reaches it lies between their values, so clamped it turns
            # y as the loop does, and a NaN, which sends y right, goes to lo.
            s = LEAVES >> k + 1
            bounds = [-inf, *values[2 * s - 1 :: 2 * s], inf]
            values[s - 1 :: 2 * s] = [
                hi if v > hi else v if v >= lo else lo
                for (a, b, _, _), den, lo, hi in zip(words, dens, bounds, bounds[1:])
                for v in ((a * split + b) / den,)
            ]
            words = [
                word
                for a, b, c, d in words
                for word in (
                    (a * p0 + b * r0, a * q0 + b * s0, c * p0 + d * r0, c * q0 + d * s0),
                    (a * p1 + b * r1, a * q1 + b * s1, c * p1 + d * r1, c * q1 + d * s1),
                )
            ]
            dens = [(c * 0.0 + d, c + d) for _, _, c, d in words]
            if not all([lo > 2 * rtol * (lo + hi) < hi for lo, hi in dens]):
                return
            # Each parent's smallest width, once per child.  min keeps it
            # against a NaN width, which the loop does not return at either.
            doubled = [w for w in widths for w in (w, w)]
            widths = [
                min(least, (a + b) / hi - (a * 0.0 + b) / lo)
                for least, (a, b, _, _), (lo, hi) in zip(doubled, words, dens)
            ]
        self.words, self.widths, self.values = words, widths, values


class _Table:
    """A value table, or a cut of one, read with the maps of its `basis`."""

    __slots__ = ("basis",)

    def cell_sums(self, shift: int, count: int) -> list:
        """Sums of the `cell_terms` over `count` runs of 2**shift cells, the
        cells between even indices, each one balanced tree of pairwise sums:
        blocks of 2**BLOCK_LEVELS cells sum their runs, and the sums join."""
        sums, step = [], 2 << BLOCK_LEVELS
        for s in range(0, 2 * count << shift, step):
            terms = self.cut(slice(s, s + step + 1)).cell_terms()
            sums += self.pair_sums(terms, max(len(terms) >> shift, 1))
        return _Table.pair_sums(sums, count)

    @classmethod
    def pair_sums(cls, terms, count: int) -> list:
        """Sums of adjacent pairs, until `count` balanced-tree sums remain."""
        while len(terms) > count:
            terms = cls.each(add, terms[::2], terms[1::2])
        return cls.listed(terms)

    @staticmethod
    def each(f, *columns):
        return list(map(f, *columns))  # _Array applies f to whole columns

    @staticmethod
    def listed(zs) -> list:
        return zs


class _Pairs(_Table):
    """An exact table: the integer pairs (p, q) of its values p/q, in two lists."""

    __slots__ = ("ps", "qs")

    def __init__(self, basis: WordBasis, ps: list, qs: list):
        self.basis, self.ps, self.qs = basis, ps, qs

    def cut(self, index: slice) -> _Pairs:
        return _Pairs(self.basis, self.ps[index], self.qs[index])

    def double(self, n: int, s: int, e: int) -> None:
        """Map values [s, e) of the n-value level by A1 to [n + s, n + e), by A0 in place."""
        (a0, b0, c0, d0), (a1, b1, c1, d1) = self.basis.m0, self.basis.m1
        ps, qs = self.ps, self.qs
        low = ps[s:e], qs[s:e]
        ps[n + s : n + e] = [a1 * p + b1 * q for p, q in zip(*low)]
        qs[n + s : n + e] = [c1 * p + d1 * q for p, q in zip(*low)]
        ps[s:e] = [a0 * p + b0 * q for p, q in zip(*low)]
        qs[s:e] = [c0 * p + d0 * q for p, q in zip(*low)]

    def floats(self) -> list:
        """The floats p / q, which int / int rounds as float(Fraction(p, q))."""
        if not all(self.qs):
            raise PoleError("exact denominator c*z + d is zero")
        return list(map(truediv, self.ps, self.qs))

    def values(self) -> list:
        """The Fractions p/q (`_fraction`), which replace ps from the last
        block of 2**BLOCK_LEVELS back as qs is freed: the table is spent."""
        ps, qs, width = self.ps, self.qs, 1 << BLOCK_LEVELS
        for s in reversed(range(0, len(ps), width)):
            ps[s : s + width] = map(_fraction, ps[s : s + width], qs[s:])
            del qs[s:]
        return ps

    def increasing(self) -> bool:
        """Whether the values p/q strictly increase: with every q positive, by
        p_i*q_{i+1} < p_{i+1}*q_i; else as the Fractions of `values`, which
        raise its PoleError at a zero q."""
        ps, qs = self.ps, self.qs
        if min(qs) <= 0:
            values = self.values()
            return all(map(lt, values, values[1:]))
        return all(map(lt, map(mul, ps, qs[1:]), map(mul, ps[1:], qs)))

    def cell_terms(self) -> list:
        """(A0' + A1')(f(midpoint)) * mass of every cell, one Fraction each:
        cell j has the pair (p1, q1) at 2j + 1, where A_i' = det_i*q1**2/den_i**2
        with den_i = c_i*p1 + d_i*q1, and mass (p2*q0 - p0*q2)/(q0*q2)."""
        (_, _, c0, d0), (_, _, c1, d1) = self.basis.m0, self.basis.m1
        det0, det1 = self.basis.dets
        ps, qs = self.ps, self.qs
        cells = zip(ps[:-1:2], qs[:-1:2], ps[1::2], qs[1::2], ps[2::2], qs[2::2])
        terms = []
        for p0, q0, p1, q1, p2, q2 in cells:
            den0, den1 = c0 * p1 + d0 * q1, c1 * p1 + d1 * q1
            sq0, sq1 = den0 * den0, den1 * den1
            bottom = sq0 * sq1 * q0 * q2
            if not (q1 and bottom):
                raise PoleError("exact denominator c*z + d is zero")
            top = q1 * q1 * (det0 * sq1 + det1 * sq0) * (p2 * q0 - p0 * q2)
            terms.append(Fraction(top, bottom))
        return terms


class _Floats(_Table):
    """A float table as a list of Python floats zs."""

    __slots__ = ("zs",)

    def __init__(self, basis: WordBasis, zs):
        self.basis, self.zs = basis, zs

    def cut(self, index: slice) -> _Floats:
        return type(self)(self.basis, self.zs[index])

    def double(self, n: int, s: int, e: int) -> None:
        """`_Pairs.double` with ``apply_mobius``'s operations and pole checks."""
        low = self.cut(slice(s, e))
        low.check_poles(*low.extremes())
        self.zs[n + s : n + e] = low.mobius(self.basis.m1)
        self.zs[s:e] = low.mobius(self.basis.m0)

    def mobius(self, m: Word) -> list:
        a, b, c, d = m
        return [(a * z + b) / (c * z + d) for z in self.zs]

    def floats(self) -> list:
        return self.listed(self.zs)

    values = floats

    def extremes(self) -> tuple[float, float]:
        return min(self.zs), max(self.zs)

    def check_poles(self, lo: float, hi: float) -> None:
        """``numerics._check_pole`` of c*z + d for every z and both maps; as rounding is
        monotone, z by z only where it nears the tolerance at lo or hi, the extreme z."""
        for _, _, c, d in (self.basis.m0, self.basis.m1):
            tol = numerics.POLE_RTOL * max(abs(c), abs(d))
            ends = c * lo + d, c * hi + d
            if not (min(ends) > tol or max(ends) < -tol):
                for z in self.floats():
                    _check_pole(c * z + d, c, d)

    def cell_terms(self):
        """`_Pairs.cell_terms` as one float formula of the table's values."""
        (_, _, c0, d0), (_, _, c1, d1) = self.basis.m0, self.basis.m1
        det0, det1 = self.basis.dets
        mids = self.cut(slice(1, None, 2))
        mids.check_poles(*mids.extremes())

        def term(low, mid, high):
            den0, den1 = c0 * mid + d0, c1 * mid + d1
            return (det0 / (den0 * den0) + det1 / (den1 * den1)) * (high - low)

        return self.each(term, self.zs[:-1:2], mids.zs, self.zs[2::2])


class _Array(_Floats):
    """A float table as a float64 array zs: IEEE +, * and / give the list's bits."""

    __slots__ = ()

    @staticmethod
    def each(f, *columns):
        return f(*columns)

    @staticmethod
    def listed(zs) -> list:
        return zs.tolist()

    def extremes(self) -> tuple[float, float]:
        return self.zs.min(), self.zs.max()

    def mobius(self, m: Word):
        a, b, c, d = m
        return (a * self.zs + b) / (c * self.zs + d)


def _fraction(p: int, q: int) -> Fraction:
    """p/q, with the pole check of an exact ``numerics.apply_mobius``."""
    if not q:
        raise PoleError("exact denominator c*z + d is zero")
    return Fraction(p, q)


def _integer_factor(m: MoebiusMatrix) -> tuple[Word, Fraction]:
    """(M, k) with M the coprime integer matrix of m and m = k * M."""
    ints = tuple(int(e) for e in renormalize(m).entries)
    k = next(Fraction(e) / i for e, i in zip(m.entries, ints) if i)
    return ints, k


def _in_band(entries: Word) -> Word:
    """The float entries, scaled by the power of two that takes the
    largest magnitude into [1/2, 1) where its binary exponent lies beyond
    +-EXPONENT_BAND: exact for every entry that stays in the normal range."""
    e = frexp(max(map(abs, entries)))[1]
    return tuple(ldexp(x, -e) for x in entries) if abs(e) > EXPONENT_BAND else entries

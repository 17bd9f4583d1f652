"""Admissibility checks for a matrix pair and the derived constants.

A pair (A0, A1) drives the two-branch functional equation

    f(x) = A0(f(2x))      for 0 <= x <= 1/2,
    f(x) = A1(f(2x - 1))  for 1/2 <= x <= 1,

where each matrix acts as a linear fractional map.  The pair is
admissible when:

  A1_cond:  b0 = 0,  A0(1) = A1(0),  A1(1) = 1,  0 < A0(1) < 1
  A2_cond:  det Ai > 0 for i = 0, 1
  A3_cond:  sqrt(det Ai) < min(d_i, c_i + d_i) for i = 0, 1

Admissibility forces d0 > a0 > 0, b1 > 0 and b1 + c1 > 0, which makes
the derived constants below well defined:

  gamma = 1 / A0(1) > 1
  alpha = min(0, c0/(d0 - a0), c1/b1),  beta = max of the same three,
  with -1 < alpha <= 0 <= beta.

The interval [alpha, beta] is invariant for both transposed maps and
confines the bottom-row ratio of every admissible word product.  The
conditional probability that the next binary digit of a sample from the
induced measure is 0, given ratio state t, is (t + 1)/(t + gamma).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DomainError, ValidationError
from .numerics import MoebiusMatrix, Scalar, _Record, apply_mobius, is_exact, transpose

if TYPE_CHECKING:  # imported on use, so `validate` does not load _words
    from ._words import ExactBasis, FloatBasis

EXACT = "exact"
APPROX = "approx"

#: Tolerance for the A1 equality checks on float input: absolute for the
#: map values A0(1) = A1(0) and A1(1) = 1, which no scaling changes, and
#: relative to max(|a0|, |c0|, |d0|) for the entry b0 = 0.  Float input
#: cannot certify algebraic identities, so systems accepted this way are
#: flagged "approx" throughout.
A1_ATOL = 1e-9

#: Residual allowed when verifying fixed points by back-substitution in
#: approximate mode (exact mode requires residual zero).
FIXED_POINT_RTOL = 1e-10


class DeRhamSystem(_Record):
    """A validated matrix pair with its cached derived constants."""

    _fields = ("A0", "A1", "alpha", "beta", "gamma", "mode")
    A0: MoebiusMatrix
    A1: MoebiusMatrix
    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    mode: str

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    @property
    def affine(self) -> bool:
        """Whether c0 = c1 = 0, so both transposed maps fix the state 0.

        Tested on the entries, not as alpha == beta: a float c1 of -5e-324
        over b1 > 2 underflows to alpha = beta = 0.0, yet its digit-1 step
        takes the state 0.0 to -0.0.  Admissibility makes a_i and d_i
        positive here, so a float state stays +0.0 even for c_i = -0.0.
        For exact systems the two tests agree.
        """
        return self.A0.entries[2] == 0 and self.A1.entries[2] == 0

    @cached_property
    def tA0(self) -> MoebiusMatrix:
        return transpose(self.A0)

    @cached_property
    def tA1(self) -> MoebiusMatrix:
        return transpose(self.A1)

    @cached_property
    def word_basis(self) -> ExactBasis | FloatBasis:
        """A0 and A1 as the factors of word products, split at `split_value`,
        in the class of the system's mode (see _words)."""
        from ._words import ExactBasis, FloatBasis

        return (ExactBasis if self.exact else FloatBasis)(self.A0, self.A1, self.split_value)

    @cached_property
    def split_value(self) -> Scalar:
        """f(1/2), the common value A0(1) = A1(0)."""
        return apply_mobius(self.A0, 1)

    @cached_property
    def balanced_state(self) -> Scalar:
        """Ratio state at which both digits are equally likely."""
        return self.gamma - 2

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    def matrix(self, digit: int) -> MoebiusMatrix:
        if digit == 0:
            return self.A0
        if digit == 1:
            return self.A1
        raise DomainError(f"digit must be 0 or 1, got {digit!r}")


def _finite(x: Scalar) -> bool:
    return is_exact(x) or math.isfinite(x)


def _eq(x: Scalar, y: Scalar, exact: bool, scale: Scalar = 1.0) -> bool:
    if exact:
        return x == y
    return abs(x - y) <= A1_ATOL * scale


def _floated(m: MoebiusMatrix) -> MoebiusMatrix:
    """The matrix with float entries; an exact entry beyond the float
    range is a violation of the `finite` condition."""
    try:
        return MoebiusMatrix(*(float(e) for e in m.entries))
    except OverflowError:
        detail = "matrix entries must be finite numbers; an exact entry exceeds the float range"
        raise ValidationError([("finite", detail)], APPROX) from None


def validate(a0_raw: MoebiusMatrix, a1_raw: MoebiusMatrix) -> DeRhamSystem:
    """Check conditions A1/A2/A3 and build the validated system.

    This is where the scalar mode is decided.  A pair whose entries are
    all exact (int or Fraction) gives an exact system; a pair with any
    float entry is converted to all-float matrices and gives an approx
    system, checked, stored and computed in floats throughout.  No other
    normalization is applied.  Raises ValidationError carrying every
    violated condition together with the failing inequality, and the
    mode.
    """
    violations: list[tuple[str, str]] = []
    exact = a0_raw.exact and a1_raw.exact
    mode = EXACT if exact else APPROX
    if not all(_finite(e) for e in a0_raw.entries + a1_raw.entries):
        raise ValidationError([("finite", "matrix entries must be finite numbers")], mode)
    if not exact:
        a0_raw, a1_raw = _floated(a0_raw), _floated(a1_raw)
    a0, b0, c0, d0 = a0_raw.entries
    a1, b1, c1, d1 = a1_raw.entries

    # A1: boundary matching of the two branch maps.
    if not _eq(b0, 0, exact, max(abs(a0), abs(c0), abs(d0))):
        violations.append(("A1", f"b0 = {b0} but b0 = 0 is required"))
    den_mid0 = c0 + d0
    den_mid1 = d1
    den_right = c1 + d1
    mid0 = mid1 = None
    if den_mid0 == 0:
        violations.append(("A1", "c0 + d0 = 0 makes A0(1) undefined"))
    else:
        mid0 = (a0 + b0) / den_mid0
    if den_mid1 == 0:
        violations.append(("A1", "d1 = 0 makes A1(0) undefined"))
    else:
        mid1 = b1 / den_mid1
    if mid0 is not None and mid1 is not None and not _eq(mid0, mid1, exact):
        violations.append(("A1", f"A0(1) = {mid0} differs from A1(0) = {mid1}"))
    if den_right == 0:
        violations.append(("A1", "c1 + d1 = 0 makes A1(1) undefined"))
    else:
        right = (a1 + b1) / den_right
        if not _eq(right, 1, exact):
            violations.append(("A1", f"A1(1) = {right} but A1(1) = 1 is required"))
    if mid0 is not None:
        if not mid0 > 0:
            violations.append(("A1", f"A0(1) = {mid0} violates '> 0'"))
        if not mid0 < 1:
            violations.append(("A1", f"A0(1) = {mid0} violates '< 1'"))

    # A2: positive determinants.
    det0 = a0_raw.det()
    det1 = a1_raw.det()
    for i, det in ((0, det0), (1, det1)):
        if not det > 0:
            violations.append(("A2", f"det A{i} = {det} is not > 0"))

    # A3: contraction margin, checked in the squared form
    # det < min(d, c+d)^2 with min(d, c+d) > 0, which avoids square
    # roots and stays decidable in rational arithmetic.
    for i, (det, d, cd) in ((0, (det0, d0, c0 + d0)), (1, (det1, d1, c1 + d1))):
        m = min(d, cd)
        if not m > 0:
            violations.append(("A3", f"min(d{i}, c{i}+d{i}) = {m} is not > 0"))
        elif not det < m * m:
            violations.append(
                ("A3", f"det A{i} = {det} is not < min(d{i}, c{i}+d{i})^2 = {m * m}")
            )

    if violations:
        raise ValidationError(violations, mode)

    # Derived inequalities.  A1-A3 provably imply them, so a failure here
    # means inconsistent arithmetic upstream; checked for defense in depth
    # (and because alpha is undefined when d0 = a0).
    derived: list[tuple[str, str]] = []
    if not d0 > a0:
        derived.append(("derived", f"d0 = {d0} must exceed a0 = {a0}"))
    if not a0 > 0:
        derived.append(("derived", f"a0 = {a0} must be positive"))
    if not b1 > 0:
        derived.append(("derived", f"b1 = {b1} must be positive"))
    if not b1 + c1 > 0:
        derived.append(("derived", f"b1 + c1 = {b1 + c1} must be positive"))
    if derived:
        raise ValidationError(derived, mode)

    z0 = c0 / (d0 - a0)
    z1 = c1 / b1
    gamma = (c0 + d0) / a0
    zero = Fraction(0) if exact else 0.0
    alpha = min(zero, z0, z1)
    beta = max(zero, z0, z1)
    if not alpha > -1:
        raise ValidationError([("derived", f"alpha = {alpha} must exceed -1")], mode)
    if not gamma > 1:
        raise ValidationError([("derived", f"gamma = {gamma} must exceed 1")], mode)

    return DeRhamSystem(
        A0=a0_raw,
        A1=a1_raw,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        mode=mode,
    )


def prob_digit0(sys: DeRhamSystem, x: Scalar) -> Scalar:
    """Conditional probability (x + 1)/(x + gamma) of the next digit 0.

    Strictly increasing on (-gamma, inf), equals 0 at -1 and 1/2 at
    gamma - 2; its range over [alpha, beta] lies in (0, 1).
    """
    if not x > -sys.gamma:
        raise DomainError(f"x = {x} must exceed -gamma = {-sys.gamma}")
    if not sys.exact:
        x = float(x)
    return (x + 1) / (x + sys.gamma)


def prob_digit1(sys: DeRhamSystem, x: Scalar) -> Scalar:
    return 1 - prob_digit0(sys, x)


def binary_entropy(p: Scalar) -> float:
    """-p*log(p) - (1-p)*log(1-p) in nats, with value 0 at p in {0, 1}.

    Always a float, even for exact input: logarithms leave the rationals.
    """
    if not 0 <= p <= 1:
        raise DomainError(f"p = {p} outside [0, 1]")
    p = float(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def transpose_fixed_points(sys: DeRhamSystem) -> tuple[Scalar, tuple[Scalar, Scalar]]:
    """Fixed points of the transposed maps.

    The transposed digit-0 map is affine with fixed point c0/(d0 - a0);
    the transposed digit-1 map fixes exactly -1 and c1/b1.  Each value is
    verified by back-substitution before being returned.
    """
    a0, _, c0, d0 = sys.A0.entries
    _, b1, c1, _ = sys.A1.entries
    fp0 = c0 / (d0 - a0)
    fp1 = c1 / b1
    minus_one = -sys.one()
    for m, fp in ((sys.tA0, fp0), (sys.tA1, fp1), (sys.tA1, minus_one)):
        residual = abs(apply_mobius(m, fp) - fp)
        if sys.exact:
            if residual != 0:
                raise ArithmeticError(f"fixed point {fp} failed back-substitution")
        elif residual >= FIXED_POINT_RTOL:
            raise ArithmeticError(
                f"fixed point {fp} back-substitution residual {residual}"
            )
    return fp0, (minus_one, fp1)


def ac_identity_residuals(sys: DeRhamSystem) -> tuple[Scalar, Scalar]:
    """Residuals lhs - rhs of the two absolute-continuity identities.

    Digit-0 identity: (c0 + d0 - 2*a0)*(d0 - a0) = a0*c0.
    Digit-1 identity: (a1 - 2*c1)*(d1 - 2*b1) = b1*c1.
    Both are homogeneous of degree 2 in the entries of their matrix, so
    the residual's vanishing is scale invariant.
    """
    a0, _, c0, d0 = sys.A0.entries
    a1, b1, c1, d1 = sys.A1.entries
    res0 = (c0 + d0 - 2 * a0) * (d0 - a0) - a0 * c0
    res1 = (a1 - 2 * c1) * (d1 - 2 * b1) - b1 * c1
    return res0, res1


def _identity_holds(residual: Scalar, lhs_scale: Scalar, exact: bool) -> bool:
    if exact:
        return residual == 0
    return abs(residual) <= 1e-9 * lhs_scale


def ac_conditions(sys: DeRhamSystem) -> tuple[bool, bool]:
    """Truth of the two algebraic identities equivalent to absolute
    continuity.  Exact systems get an exact verdict; float systems are
    decided, and cannot be certified, within 1e-9 relative to the square
    of their matrix's largest entry: with no absolute floor, scaling a
    matrix changes no verdict."""
    res0, res1 = ac_identity_residuals(sys)
    a0, _, c0, d0 = sys.A0.entries
    a1, b1, c1, d1 = sys.A1.entries
    scale0 = max(abs(e) for e in (a0, c0, d0)) ** 2
    scale1 = max(abs(e) for e in (a1, b1, c1, d1)) ** 2
    return (
        _identity_holds(res0, scale0, sys.exact),
        _identity_holds(res1, scale1, sys.exact),
    )

"""Named constructors for the two standard families.

lebesgue(p): A0 = ((p, 0), (0, 1)), A1 = ((1-p, p), (0, 1)).  The
solution is the distribution function of the biased-coin measure; it is
the identity at p = 1/2 and a strictly singular function otherwise.

walk(u): with x = 2/(1 + sqrt(1 + 8*u**2)),
A0 = ((x, 0), (-u**2 x**2, 1)), A1 = ((0, x), (-u**2 x**2, 1 - u**2 x**2)),
admissible for 0 < u < sqrt(3).  x is rational only for special rational
u (u = 1 gives x = 1/2); the constructor keeps exact arithmetic exactly
when that happens and falls back to floats otherwise.

Both constructors write the constant entries as the ints 0 and 1 and
leave their scalar type to ``validate``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .numerics import MoebiusMatrix, Scalar, is_exact
from .system import DeRhamSystem, _floated, validate


def lebesgue_system(p: Scalar) -> DeRhamSystem:
    if not 0 < p < 1:
        raise DomainError(f"p = {p} outside (0, 1)")
    return validate(MoebiusMatrix(p, 0, 0, 1), MoebiusMatrix(1 - p, p, 0, 1))


def _walk_ux(u: Scalar) -> tuple[Scalar, Scalar]:
    """u and x = 2/(1 + sqrt(1 + 8 u^2)), both exact when the square root
    is rational and both floats otherwise."""
    if is_exact(u):
        u = Fraction(u)
        num, den = u.numerator, u.denominator
        radicand = den * den + 8 * num * num
        root = math.isqrt(radicand)
        if root * root == radicand:
            return u, Fraction(2 * den, den + root)
    u = float(u)
    return u, 2.0 / (1.0 + math.sqrt(1.0 + 8.0 * u * u))


def walk_system(u: Scalar) -> DeRhamSystem:
    if not u > 0:
        raise DomainError(f"u = {u} must be positive")
    u, x = _walk_ux(u)
    uxx = u * u * x * x
    return validate(MoebiusMatrix(x, 0, -uxx, 1), MoebiusMatrix(0, x, -uxx, 1 - uxx))


def force_approx(sys: DeRhamSystem) -> DeRhamSystem:
    """Revalidate the same pair with every entry converted to float."""
    return validate(_floated(sys.A0), _floated(sys.A1))


PRESETS = {
    "lebesgue": lebesgue_system,
    "walk": walk_system,
}

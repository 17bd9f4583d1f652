"""Scalar and 2x2 linear-fractional (Moebius) matrix primitives.

Scalars live in one of two modes that travel through every computation:

* exact mode: ``fractions.Fraction`` (plain ``int`` is accepted and
  promoted).  All arithmetic stays exact and results are kept in lowest
  terms with a positive denominator automatically.
* approximate mode: ``float``.  Any operation that touches a float yields
  a float; exact values never degrade silently because Fraction/Fraction
  arithmetic cannot produce a float.

``system.validate`` picks the mode of a matrix pair once: a pair with any
float entry is stored, and so computed, in floats throughout, so the code
downstream of it needs no per-value conversions.

A matrix ((a, b), (c, d)) acts on the line by z -> (a*z + b)/(c*z + d),
which is invariant under scaling the matrix by any positive constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, PoleError, ZeroMatrixError

Scalar = Union[int, Fraction, float]

Bits = tuple[int, ...]  # a dyadic address, most significant digit first

#: Relative denominator threshold below which a float evaluation is
#: treated as sitting on a pole: |c*z + d| <= POLE_RTOL * max(|c|, |d|),
#: with no absolute floor, so scaling the matrix changes no verdict.
#: Admissible systems keep denominators strictly positive on [0, 1], so a
#: near-zero denominator means the input is numerically unusable, not
#: that the request is valid.
POLE_RTOL = 1e-15


def check_bits(bits: Bits) -> None:
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"address digits must be 0 or 1, got {bits!r}")


def is_exact(x: Scalar) -> bool:
    """True for int/Fraction scalars, False for floats."""
    return not isinstance(x, float)


def _coerce(x: Scalar) -> Scalar:
    """Promote exact scalars to Fraction so division stays exact."""
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"unsupported scalar type {type(x).__name__!r}")


class _Record:
    """A frozen record over the attribute names in ``_fields``.

    Equality (same class, equal field tuples), hash and repr read the
    fields in order; assigning or deleting any attribute raises
    AttributeError.  A subclass that writes no ``__init__`` gets one that
    takes its fields in order, the last ones defaulting to ``_defaults``,
    built from source once, as ``collections.namedtuple`` builds its own,
    so signatures, keyword calls and TypeErrors are those of a written
    one.  Either stores the attributes with ``self.__dict__.update``.
    Instances keep a ``__dict__``, so ``functools.cached_property``
    caches into it, and ``copy`` and ``pickle`` restore it without
    calling ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in vars(cls):
            return
        fields, ns = cls._fields, {"__name__": cls.__module__}
        stores = ", ".join(f"{n}={n}" for n in fields)
        exec(f"def __init__(self, {', '.join(fields)}):\n self.__dict__.update({stores})", ns)
        init = ns["__init__"]
        init.__defaults__ = cls._defaults or None
        init.__annotations__ = {n: cls.__annotations__[n] for n in fields}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MoebiusMatrix(_Record):
    """A real 2x2 matrix ((a, b), (c, d)) acting by z -> (a*z+b)/(c*z+d)."""

    _fields = ("a", "b", "c", "d")
    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self.__dict__.update(a=_coerce(a), b=_coerce(b), c=_coerce(c), d=_coerce(d))

    @property
    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    @property
    def exact(self) -> bool:
        return all(is_exact(e) for e in self.entries)

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def scaled(self, k: Scalar) -> "MoebiusMatrix":
        k = _coerce(k)
        return MoebiusMatrix(k * self.a, k * self.b, k * self.c, k * self.d)

    def __matmul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        return mat_mul(self, other)

    def __call__(self, z: Scalar) -> Scalar:
        return apply_mobius(self, z)


IDENTITY = MoebiusMatrix(1, 0, 0, 1)


def identity_matrix(exact: bool = True) -> MoebiusMatrix:
    """Identity matrix typed for the requested scalar mode."""
    if exact:
        return IDENTITY
    return MoebiusMatrix(1.0, 0.0, 0.0, 1.0)


def _check_pole(den: Scalar, c: Scalar, d: Scalar) -> None:
    if is_exact(den):
        if den == 0:
            raise PoleError("exact denominator c*z + d is zero")
    else:
        tol = POLE_RTOL * max(abs(float(c)), abs(float(d)))
        if abs(den) <= tol:
            raise PoleError(f"denominator {den!r} within pole tolerance {tol!r}")


def apply_mobius(m: MoebiusMatrix, z: Scalar) -> Scalar:
    """Evaluate (a*z + b)/(c*z + d).

    Raises PoleError when the denominator vanishes (exactly in exact
    mode, within POLE_RTOL relative to max(|c|, |d|) in float mode).
    """
    z = _coerce(z)
    den = m.c * z + m.d
    _check_pole(den, m.c, m.d)
    return (m.a * z + m.b) / den


def mobius_derivative(m: MoebiusMatrix, z: Scalar) -> Scalar:
    """Derivative of the map at z: (a*d - b*c)/(c*z + d)^2."""
    z = _coerce(z)
    den = m.c * z + m.d
    _check_pole(den, m.c, m.d)
    return m.det() / (den * den)


def mat_mul(x: MoebiusMatrix, y: MoebiusMatrix) -> MoebiusMatrix:
    """Standard 2x2 product; composes the maps: (x@y)(z) = x(y(z))."""
    return MoebiusMatrix(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def transpose(m: MoebiusMatrix) -> MoebiusMatrix:
    return MoebiusMatrix(m.a, m.c, m.b, m.d)


def renormalize(m: MoebiusMatrix) -> MoebiusMatrix:
    """Rescale by a positive constant to a canonical representative.

    Exact mode: clear denominators and divide out the gcd, giving integer
    entries with no common factor.  Float mode: divide by the largest
    absolute entry so the maximum magnitude is 1.  The induced map is
    unchanged either way.
    """
    if m.exact:
        fracs = [Fraction(e) for e in m.entries]
        if all(f == 0 for f in fracs):
            raise ZeroMatrixError("cannot renormalize the zero matrix")
        lcm = math.lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (lcm // f.denominator) for f in fracs]
        g = math.gcd(*ints)
        return MoebiusMatrix(*(Fraction(i // g) for i in ints))
    return MoebiusMatrix(*_unit_scaled(tuple(float(e) for e in m.entries)))


def _unit_scaled(entries: tuple[float, ...]) -> tuple[float, ...]:
    """The four float entries divided by their largest magnitude."""
    a, b, c, d = entries
    top = max(abs(a), abs(b), abs(c), abs(d))
    if top == 0.0:
        raise ZeroMatrixError("cannot renormalize the zero matrix")
    if not math.isfinite(top):
        raise ZeroMatrixError("cannot renormalize a non-finite matrix")
    return a / top, b / top, c / top, d / top


#: A float matrix whose largest entry has a binary exponent (math.frexp)
#: beyond +-EXPONENT_BAND is scaled by a power of two to one in [1/2, 1)
#: (`_in_band`): _words.RENORM_EVERY products of factors inside the band
#: stay in float range, and so do the determinant and squares that
#: system.validate tests.
EXPONENT_BAND = 16


def _in_band(entries: tuple[float, ...]) -> tuple[float, ...]:
    """The float entries, scaled by the power of two that takes the
    largest magnitude into [1/2, 1) where its binary exponent lies beyond
    +-EXPONENT_BAND: exact for every entry that stays in the normal range."""
    e = math.frexp(max(map(abs, entries)))[1]
    return tuple(math.ldexp(x, -e) for x in entries) if abs(e) > EXPONENT_BAND else entries

"""Evaluation of the solution f, its inverse, and the closed form.

f is the unique continuous strictly increasing solution of the
two-branch equation; it maps the dyadic interval named by a bit string
(i1, ..., in) onto the value interval [W(0), W(1)] for the word product
W = A_{i1} @ ... @ A_{in}.  Everything here works off that enclosure.

Conventions: dyadic intervals are half open, digits use the terminating
expansion (digit n of x is floor(2^n x) - 2*floor(2^(n-1) x)), and x = 1
is the special point with f(1) = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    DomainError,
    FormMismatchError,
    NonConvergenceError,
    NotAbsolutelyContinuousError,
)
from .numerics import Bits, MoebiusMatrix, Scalar, apply_mobius, check_bits
from .system import DeRhamSystem, ac_conditions

#: Adaptive evaluation refuses to descend further than this.  The
#: contraction margin guarantees geometric enclosure shrinkage, so
#: hitting the cap signals an unusable float-mode system (or tol = 0 at
#: a point with a non-terminating expansion).
MAX_DEPTH = 4096

#: Deepest exact value table, so also of `plot` and exact `stationary`:
#: its integer pairs and Fractions, and so the time and memory per value,
#: grow with the depth.  As CLI runs at depth 20 on a 2-core Xeon, exact
#: `plot walk:1` took 7.0 s (147 MB), of which the table took about
#: 2.8 s; `stationary walk:1`, which compares the pairs and forms no
#: Fraction, 0.65-0.72 s (123 MB), and on a pair with 18-bit integer
#: entries 1.8 s (215 MB).
_MAX_EXACT_TABLE_DEPTH = 20

#: Deepest value table a request may ask for, 2**22 + 1 values; the
#: doubling-map quadrature reads one level deeper, so --quad-depth 22
#: builds 2**23 + 1 values (96.5 MB peak for float walk:0.5, 2-core Xeon).
MAX_TABLE_DEPTH = 22


class ValueEnclosure(NamedTuple):
    """Bracket [lower, upper] for f over a dyadic interval: certified in
    exact mode; in approx mode two rounded values that need not contain f
    (see dyadic_enclosure)."""

    lower: Scalar
    upper: Scalar

    @property
    def width(self) -> Scalar:
        return self.upper - self.lower

    def midpoint(self) -> Scalar:
        return (self.lower + self.upper) / 2


def address_interval(bits: Bits) -> tuple[Fraction, Fraction]:
    """The half-open dyadic interval named by the address."""
    check_bits(bits)
    lo = Fraction(0)
    for j, b in enumerate(bits, start=1):
        if b:
            lo += Fraction(1, 2**j)
    return lo, lo + Fraction(1, 2 ** len(bits))


def digits_of(x: Scalar, depth: int) -> Bits:
    """First `depth` binary digits of x in [0, 1).

    Exact input is expanded exactly; float input is expanded by exact
    doubling of its binary representation, which is also exact.
    """
    if not 0 <= x < 1:
        raise DomainError(f"x = {x} outside [0, 1)")
    y = x
    bits = []
    for _ in range(depth):
        y = y * 2
        if y >= 1:
            bits.append(1)
            y = y - 1
        else:
            bits.append(0)
    return tuple(bits)


def dyadic_digits(x: Scalar) -> Bits:
    """Terminating expansion of a dyadic rational in [0, 1)."""
    f = Fraction(x)
    if not 0 <= f < 1:
        raise DomainError(f"x = {x} outside [0, 1)")
    den = f.denominator
    if den & (den - 1):
        raise DomainError(f"x = {x} is not a dyadic rational")
    depth = den.bit_length() - 1
    return digits_of(f, depth)


def word_matrix(sys: DeRhamSystem, bits: Bits) -> MoebiusMatrix:
    """Left-to-right product of the matrices named by the address.  In float
    mode it is rescaled by a positive factor every 16 factors, as
    ``FloatBasis.path`` forms it: the same map, masses and states, other entries
    (force_approx(walk:1) at (0, 1) * 10: 192 times the mat_mul fold).  A
    float pair with an entry whose binary exponent lies beyond
    +-``_words.EXPONENT_BAND`` (16) is read up to a power of two too: the
    product of its factors scaled into that band, so that no rescaling
    block leaves the float range."""
    check_bits(bits)
    basis = sys.word_basis
    ones = sum(bits)
    return basis.literal(basis.path(bits), len(bits) - ones, ones)


def dyadic_enclosure(sys: DeRhamSystem, bits: Bits) -> ValueEnclosure:
    """Enclosure [W(0), W(1)] of f over the address's interval.

    The empty address yields [0, 1].  Upper endpoints are consistent:
    the upper value of an address equals the lower value of its dyadic
    successor, exactly so in exact mode.  Both endpoints are read as
    dyadic_value_table reads its values, A_{i1}(... A_{in}(z)) from the
    last digit, so the lower one equals the table's value at the
    address's left end, bit for bit in float mode.  Float endpoints are
    rounded, not rounded outward, so they can miss f by a few units in
    the last place on either side (walk_system(1) cast to float, depth
    14: 8447 table values above the exact ones and 7936 below, by up to
    2.5e-16).
    """
    check_bits(bits)
    basis = sys.word_basis
    return ValueEnclosure(basis.image(bits, sys.zero()), basis.image(bits, sys.one()))


def value_at_dyadic(sys: DeRhamSystem, x: Scalar) -> Scalar:
    """f at a dyadic rational in [0, 1], read off the terminating address
    as dyadic_enclosure reads its lower end."""
    if x == 1:
        return sys.one()
    if x == 0:
        return sys.zero()
    return sys.word_basis.image(dyadic_digits(x), sys.zero())


def dyadic_value_table(sys: DeRhamSystem, depth: int) -> list[Scalar]:
    """f(j / 2**depth) for j = 0 .. 2**depth, built from the functional
    equation: from [f(0)] = [0], the values at depth k + 1 are A0 of those
    at depth k followed by A1 of them (``WordBasis.table``).

    Exact tables are refused above depth _MAX_EXACT_TABLE_DEPTH, float
    tables above MAX_TABLE_DEPTH, before anything is swept."""
    return _value_table(sys, depth).values()


def _value_table(sys: DeRhamSystem, depth: int):
    """dyadic_value_table's ``WordBasis.table``, before its `values`."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if sys.exact and depth > _MAX_EXACT_TABLE_DEPTH:
        raise DomainError(
            f"depth = {depth} exceeds {_MAX_EXACT_TABLE_DEPTH}, the cap for exact "
            "tables (their integer words grow with the depth); "
            "use --mode approx (force_approx) or a smaller depth"
        )
    if depth > MAX_TABLE_DEPTH:
        raise DomainError(f"depth = {depth} exceeds the cap of {MAX_TABLE_DEPTH}")
    return sys.word_basis.table(depth)


def evaluate(
    sys: DeRhamSystem,
    x: Scalar,
    tol: float,
    max_depth: int = MAX_DEPTH,
) -> Scalar:
    """Value v with |v - f(x)| <= tol.

    Deepens the dyadic address of x until the enclosure width is at most
    2*tol and returns the midpoint (``word_basis.evaluate``, the descent
    of the system's mode; float mode reads each word at 0 and 1 with
    ``apply_mobius``'s operations).  Exact-mode dyadic rationals take the
    terminating address and return f(x) exactly (so tol = 0 is allowed
    there); x = 0 and x = 1 return exact endpoint values in both modes.
    In approx mode tol is a target, not a guarantee: the enclosure is
    rounded (see dyadic_enclosure), so a tol near the rounding error can
    be missed (force_approx(walk_system(1)) at x = 1/3 with tol 1e-17
    lands 2.1e-17 from f(x)).
    """
    if not 0 <= x <= 1:
        raise DomainError(f"x = {x} outside [0, 1]")
    if not tol >= 0:
        raise DomainError("tol must be >= 0")
    if x == 0:
        return sys.zero()
    if x == 1:
        return sys.one()

    y: Scalar
    if sys.exact:
        f = Fraction(x)
        if f.denominator & (f.denominator - 1) == 0:
            return value_at_dyadic(sys, f)
        y = f
    else:
        y = float(x)
    value, depth, width = sys.word_basis.evaluate(y, tol, max_depth)
    if value is None:
        raise NonConvergenceError(
            f"enclosure width above 2*tol = {2 * tol} after {max_depth} digits",
            depth=depth,
            width=width,
        )
    return value


def functional_equation_residual(sys: DeRhamSystem, x: Scalar) -> Scalar:
    """Residual of the two-branch equation at a dyadic rational x.

    Returns |f(x) - A0(f(2x))| for x <= 1/2 and |f(x) - A1(f(2x-1))| for
    x >= 1/2; at x = 1/2 both branches are computed and the larger
    residual is returned (both vanish for admissible systems).
    """
    fx = Fraction(x)
    if not 0 <= fx <= 1:
        raise DomainError(f"x = {x} outside [0, 1]")
    if fx.denominator & (fx.denominator - 1):
        raise DomainError(f"x = {x} is not a dyadic rational")
    residuals = []
    v = value_at_dyadic(sys, fx)
    if fx <= Fraction(1, 2):
        inner = value_at_dyadic(sys, 2 * fx)
        residuals.append(abs(v - apply_mobius(sys.A0, inner)))
    if fx >= Fraction(1, 2):
        inner = value_at_dyadic(sys, 2 * fx - 1)
        residuals.append(abs(v - apply_mobius(sys.A1, inner)))
    return max(residuals)


def inverse_evaluate(
    sys: DeRhamSystem,
    y: Scalar,
    tol: float,
    max_depth: int = MAX_DEPTH,
) -> Scalar:
    """Point x with |x - g(y)| <= tol, g the inverse of f.

    Descends the dyadic tree, at each node entering the child whose value
    enclosure contains y (f is strictly increasing, so the children split
    the parent's value range at f of the interval midpoint, the node's
    word at the basis's split f(1/2) = A0(1), ``split_value``);
    ``word_basis.inverse`` is the descent of the system's mode.  In exact
    mode a y that hits a dyadic image exactly returns g(y) exactly.  An
    exact y on a float system is compared with the float node values as
    it is, not cast.  In approx mode tol is not a guarantee: where f is
    flat, comparing y with a rounded node value can send the descent into
    the wrong child, far outside tol (force_approx(walk_system(3/7)) at
    its table value for x = 255/256, with tol 5e-12, lands 1.94e-6 from
    the exact inverse of that float).
    """
    if not 0 <= y <= 1:
        raise DomainError(f"y = {y} outside [0, 1]")
    if not tol >= 0:
        raise DomainError("tol must be >= 0")
    if y == 0:
        return sys.zero()
    if y == 1:
        return sys.one()

    x, depth, width = sys.word_basis.inverse(y, tol, max_depth)
    if x is None:
        raise NonConvergenceError(
            f"no convergence to tol = {tol} in {max_depth} steps", depth=depth, width=width
        )
    return x


def normal_form(sys: DeRhamSystem) -> tuple[MoebiusMatrix, MoebiusMatrix]:
    """Scale A0 by 1/d0 and A1 by 1/b1 and match the forced family.

    When both absolute-continuity identities hold, the normalized pair
    must equal ((1/2, 0), (c0, 1)) and ((4*c0+1, 1), (2*c0, 2*(1+c0)))
    for c0 the normalized lower-left entry of A0.  Raises
    NotAbsolutelyContinuousError when the identities fail, and
    FormMismatchError when the family match fails afterwards (which is
    impossible for exact input).
    """
    cond0, cond1 = ac_conditions(sys)
    if not (cond0 and cond1):
        raise NotAbsolutelyContinuousError(
            "closed form requires both absolute-continuity identities; "
            f"digit-0 identity holds: {cond0}, digit-1 identity holds: {cond1}"
        )
    n0 = sys.A0.scaled(1 / sys.A0.d)
    n1 = sys.A1.scaled(1 / sys.A1.b)
    c0 = n0.c
    expected0 = (sys.one() / 2, sys.zero(), c0, sys.one())
    expected1 = (4 * c0 + 1, sys.one(), 2 * c0, 2 * (1 + c0))

    def matches(got, want) -> bool:
        if sys.exact:
            return all(g == w for g, w in zip(got, want))
        return all(abs(g - w) <= 1e-9 for g, w in zip(got, want))

    if not (matches(n0.entries, expected0) and matches(n1.entries, expected1)):
        raise FormMismatchError(
            f"normalized pair {n0.entries}, {n1.entries} does not match the "
            f"family forced by the identities at c0 = {c0}"
        )
    return n0, n1


def closed_form_solution(sys: DeRhamSystem) -> tuple[Scalar, Callable[[Scalar], Scalar]]:
    """Closed form of f in the absolutely continuous case.

    Returns (c0, f) with c0 the normalized lower-left entry of A0 and
    f(x) = x / (-2*c0*x + 1 + 2*c0).
    """
    n0, _ = normal_form(sys)
    c0 = n0.c

    def f(x: Scalar) -> Scalar:
        return x / (-2 * c0 * x + 1 + 2 * c0)

    return c0, f


def ac_density(c0: Scalar) -> Callable[[Scalar], Scalar]:
    """Density (1 + 2*c0) / (-2*c0*x + 1 + 2*c0)**2 of the solution
    measure in the absolutely continuous case."""

    def density(x: Scalar) -> Scalar:
        den = -2 * c0 * x + 1 + 2 * c0
        return (1 + 2 * c0) / (den * den)

    return density

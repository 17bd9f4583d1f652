"""Stationary-measure structure of the inverse distribution.

Let g be the inverse of the solution f and mu_g the measure with
distribution function g.  For the random action that applies A0 or A1
with probability 1/2 each, mu_g is the unique stationary measure; on the
algebra generated by the f-images of dyadic intervals it satisfies

    mu_g(f(I_k(x))) = mu_g(f(I_{k-1}(2x mod 1))) / 2 = 2**(-k).

Both identities are verified here to a requested tolerance (exactly, in
exact mode, where f's value table is certified strictly increasing).
The final check is the change-of-measure identity for the doubling map
T(x) = 2x mod 1:

    mu_f(T^{-1} A) = integral over A of (A0'(f(y)) + A1'(f(y))) dmu_f(y)

tested on dyadic intervals with a midpoint rule that uses exact cell
masses, so the only error is the integrand's variation within a cell.
"""

from __future__ import annotations

from .errors import DomainError
from .numerics import MoebiusMatrix, Scalar, _in_band, _Record, mobius_derivative
from .solution import MAX_TABLE_DEPTH, _value_table, dyadic_value_table, inverse_evaluate
from .system import DeRhamSystem


#: Deepest float stationarity check, refused above before any table is
#: swept: every grid value is inverted, about four times the work per two
#: levels.  On a 2-core Xeon, approx walk:0.5 took 3.6 s (60 MB) at depth
#: 18 as a CLI run, and 13.6 s (151 MB) at 20 in process.  Exact checks
#: invert nothing and share the exact table cap
#: (solution._MAX_EXACT_TABLE_DEPTH).
_MAX_FLOAT_CHECK_DEPTH = 18

#: Smallest tol of a float stationarity check: below it the float
#: inversions halve their step down to underflow, about 1075 levels
#: instead of about 37, for the same residual bits.  On walk:0.5 at
#: depth 10 (2-core Xeon), tol 1e-11 took 0.09 s and tol 0 took 2.26 s.
_MIN_FLOAT_CHECK_TOL = 2.0**-53

#: Deepest exact doubling-map quadrature of a non-affine pair with entries
#: of at most 3 bits (walk:1).  Cell terms have distinct denominators, so
#: exact sums grow with the cells per interval and with the bits of the
#: pair's largest integer entry: the cap is the largest quad depth q with
#: bits * 2**q <= 3 * 2**_MAX_EXACT_QUAD_DEPTH.  At --shift-depth 1, in
#: process on a 2-core Xeon, times at the cap (one level above) were:
#: 3 bits (walk:1) at 14, 0.53 s (2.0 s as a CLI run); 4 at 13, 1.9 s
#: (5.7); 6 at 13, 3.7 s (13.0); 7 at 12, 0.30 s (1.1); 13 at 11, 0.96 s
#: (5.1); 18 at 11, 2.3 s (7.7); 24 at 11, 2.8 s (12.2); 25 at 10, 0.69 s
#: (3.4); 48 at 10, 2.7 s; 49 at 9, 0.54 s (2.6).  Exact affine pairs are
#: answered in closed form and capped only at MAX_TABLE_DEPTH.
_MAX_EXACT_QUAD_DEPTH = 14


class StationarityReport(_Record):
    """Maximum residuals of the halving recursion and the mass identity
    (exactly 0 in exact mode; the inversions' error in float mode), plus
    the transfer of the classification verdict to g = f^-1, always True:
    g is singular exactly when f is, as the absolutely continuous f of
    this family have positive densities (1 + 2*c0)/(-2*c0*x + 1 + 2*c0)**2."""

    _fields = ("depth", "max_residual_recursion", "max_residual_mass", "verdict_transfer")
    depth: int
    max_residual_recursion: Scalar
    max_residual_mass: Scalar
    verdict_transfer: bool


def inverse_measure_interval(
    sys: DeRhamSystem, a: Scalar, b: Scalar, tol: float
) -> Scalar:
    """mu_g([a, b]) = g(b) - g(a), each endpoint to tolerance tol/2."""
    if not 0 <= a <= b <= 1:
        raise DomainError(f"need 0 <= a <= b <= 1, got a = {a}, b = {b}")
    half = tol / 2
    return inverse_evaluate(sys, b, half) - inverse_evaluate(sys, a, half)


def stationarity_check(sys: DeRhamSystem, depth: int, tol: float) -> StationarityReport:
    """Exhaustive residuals over every address down to `depth`.

    For each address, compares mu_g of its value interval with 2**-k and
    with half the mu_g-mass of the digit-shifted parent interval, all
    read off one table of g at the depth's values.  Both identities hold
    for any increasing f, as mu_g(f([a, b])) = b - a, so neither tests
    that mu_g is stationary (the doubling-map identity is the one that
    uses A0' and A1').  Exact mode certifies that the table of f strictly
    increases (else ArithmeticError), by cross products of its integer
    pairs (``_Pairs.increasing``), so g(f(j / 2**depth)) = j / 2**depth
    and both residuals are exactly zero at any tol, which is only
    validated.  Float mode inverts every table value at tol/2, so its
    residuals are not certified and can exceed tol by orders of
    magnitude, as inverse_evaluate can miss tol at the table values
    (walk:0.5, depth 8, tol 1e-11: a mass residual of 1.0e-7).  Exact
    checks are refused above the exact table cap (20), float checks above
    _MAX_FLOAT_CHECK_DEPTH and below tol _MIN_FLOAT_CHECK_TOL, before any
    table is swept.  verdict_transfer is always True; see
    StationarityReport.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if not sys.exact and depth > _MAX_FLOAT_CHECK_DEPTH:
        raise DomainError(
            f"depth = {depth} exceeds {_MAX_FLOAT_CHECK_DEPTH}, the cap for float "
            "stationarity checks; use a smaller depth"
        )
    if not tol >= 0:
        raise DomainError("tol must be >= 0")
    if not sys.exact and tol < _MIN_FLOAT_CHECK_TOL:
        raise DomainError(
            f"tol = {tol!r} is below 2**-53, the floor for float stationarity "
            "checks (smaller tols cost more and give the same residuals); "
            "use a larger tol (--tol)"
        )
    if sys.exact:
        if not _value_table(sys, depth).increasing():
            raise ArithmeticError(f"exact value table at depth {depth} is not strictly increasing")
        return StationarityReport(depth, sys.zero(), sys.zero(), True)
    g = [inverse_evaluate(sys, v, tol / 2) for v in dyadic_value_table(sys, depth)]
    max_mass = max_rec = sys.zero()
    parent = [g[-1] - g[0]]  # the depth-0 interval is all of [0, 1]
    for k in range(1, depth + 1):
        stride = 1 << (depth - k)
        level = [b - a for a, b in zip(g[::stride], g[stride::stride])]
        cell = sys.one() / 2**k
        max_mass = max(max_mass, max(abs(m - cell) for m in level))
        # Dropping the leading digit maps address j to j mod 2**(k-1),
        # and the image interval halves in mass.
        max_rec = max(max_rec, max(abs(m - p / 2) for m, p in zip(level, parent * 2)))
        parent = level
    return StationarityReport(depth, max_rec, max_mass, True)


def _check_quadrature(sys: DeRhamSystem, depth: int, quad_depth: int) -> None:
    """Refuse a doubling_map_change_of_measure request before any sweep."""
    if depth < 1:
        raise DomainError(
            f"shift depth = {depth} (--shift-depth) must be >= 1 and below quad_depth = {quad_depth}"
        )
    if quad_depth <= depth:
        raise DomainError(
            f"quad_depth = {quad_depth} must exceed the shift depth = {depth} (--shift-depth)"
        )
    if quad_depth > MAX_TABLE_DEPTH:
        raise DomainError(f"quad_depth = {quad_depth} exceeds the cap of {MAX_TABLE_DEPTH}")
    if sys.exact and not sys.affine:
        bits = sys.word_basis.entry_bits()
        cap = min(_MAX_EXACT_QUAD_DEPTH, ((3 << _MAX_EXACT_QUAD_DEPTH) // bits).bit_length() - 1)
        if quad_depth > cap:
            raise DomainError(
                f"quad_depth = {quad_depth} exceeds {cap}, the cap for exact quadrature of "
                f"non-affine pairs with {bits}-bit entries; use --mode approx (force_approx) "
                "or a smaller quad_depth"
            )


def doubling_map_change_of_measure(
    sys: DeRhamSystem, depth: int, quad_depth: int
) -> Scalar:
    """Max residual of the doubling-map change-of-measure identity over
    all dyadic intervals A at `depth`.

    The left side mu_f(T^{-1} A) is the exact mass of the two preimage
    intervals (prepend digit 0 or 1 to A's address).  The right side sums
    (A0' + A1') at f(cell midpoint) times the exact cell mass over the
    cells of A at `quad_depth`; the residual is pure quadrature error.  It
    shrinks like 2**-quad_depth on walk:1, far slower where f is flat
    (walk:3/7 at depth 1: 0.011 at quad depth 6, 1.1e-4 at 18).
    quad_depth is capped at 22 (4M cells), and for exact non-affine pairs
    lower, by the size of their integer entries (_check_quadrature).

    Both modes read everything off one table t of f at depth
    quad_depth + 1 (``WordBasis.table``): cell j's midpoint value is
    t[2j + 1] and its mass t[2j + 2] - t[2j], and the preimage masses are
    differences of t at a stride.  Each interval's cells are summed in one
    balanced tree of pairwise sums (`cell_sums`): in exact mode this equals
    the left-to-right sum in value and type; in float mode its rounding
    error grows with the tree's depth, not with the number of cells.
    For affine pairs (c0 = c1 = 0) the integrand is the constant
    det0/d0**2 + det1/d1**2, so in either mode the right side is that
    constant times the mass of A, and the table stops at depth + 1.
    """
    _check_quadrature(sys, depth, quad_depth)
    n_intervals = 1 << depth
    top = depth + 1 if sys.affine else quad_depth + 1
    table = sys.word_basis.table(top)

    # Preimage masses: the addresses 0A and 1A lie 2**depth apart at depth + 1.
    grid = table.cut(slice(None, None, 1 << (top - depth - 1))).values()
    masses = [b - a for a, b in zip(grid, grid[1:])]

    if sys.affine:
        # A0' + A1' is the constant det0/d0**2 + det1/d1**2, so the sum over
        # A's cells is that constant times the mass of A, that of its two
        # children 2j and 2j + 1.
        # det/d**2 is unchanged by a positive scaling, so a float factor is
        # taken scaled into its exponent band (numerics._in_band), exactly,
        # where det and d**2 neither overflow nor underflow.
        m0, m1 = (m if sys.exact else MoebiusMatrix(*_in_band(m.entries)) for m in (sys.A0, sys.A1))
        slope = mobius_derivative(m0, 0) + mobius_derivative(m1, 0)
        rhs = [slope * (a + b) for a, b in zip(masses[::2], masses[1::2])]
    else:
        rhs = table.cell_sums(quad_depth - depth, n_intervals)

    return max(
        (abs(a + b - r) for a, b, r in zip(masses, masses[n_intervals:], rhs)),
        default=sys.zero(),
    )

"""Dimension bounds, the singular/absolutely-continuous dichotomy, and
the quantitative dimension defect for singular systems.

The composite map t -> binary_entropy(prob_digit0(t)) is strictly
increasing up to the balanced state gamma - 2 (where the digit law is
fair) and strictly decreasing after it, so its extrema over
[alpha, beta] have closed forms.  Dividing by log 2 turns the extrema
into upper/lower bounds for the Hausdorff dimension of sets carrying the
measure.

Absolute continuity is equivalent to the two exact algebraic identities
checked by ac_conditions; when the digit-0 identity fails, the balanced
state is not fixed by the transposed digit-0 map and a certified window
around it is escaped in one step, which caps the achievable entropy rate
strictly below log 2 and yields a dimension bound strictly below 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import ConditionHoldsError, DomainError
from .numerics import Scalar, _Record, apply_mobius
from .system import DeRhamSystem, ac_conditions, binary_entropy, prob_digit0

LOG2 = math.log(2.0)

SINGULAR = "singular"
ABSOLUTELY_CONTINUOUS = "absolutely_continuous"

#: One-sided safety factor applied to the certified escape radius; keeps
#: the strict inequalities strict after the closed-form optimum.
_RADIUS_MARGIN = Fraction(2**20 - 1, 2**20)


class DimensionBounds(_Record):
    """Entropy-rate extrema (nats) and the induced dimension bounds."""

    _fields = ("entropy_max", "entropy_min", "dim_upper", "dim_lower", "argmax_location")
    entropy_max: float
    entropy_min: float
    dim_upper: float
    dim_lower: float
    argmax_location: Scalar


class ClassificationReport(_Record):
    """Outcome of the exact dichotomy.

    verdict is "absolutely_continuous" exactly when both identities
    hold; c0 carries the closed-form parameter in that case.  Singular
    verdicts carry the dimension bounds plus, when the digit-0 identity
    is the one failing, the quantitative defect bound (< 1).
    """

    _fields = (
        "ac_condition_0", "ac_condition_1", "verdict", "exactness", "c0", "bounds", "defect_bound"
    )
    _defaults = (None, None, None)  # c0, bounds, defect_bound
    ac_condition_0: bool
    ac_condition_1: bool
    verdict: str
    exactness: str
    c0: Optional[Scalar]
    bounds: Optional[DimensionBounds]
    defect_bound: Optional[float]


def dimension_bounds(sys: DeRhamSystem) -> DimensionBounds:
    """Closed-form extrema of the entropy of the digit law over the
    invariant state interval, in nats and in dimension units."""
    balanced = sys.balanced_state
    s_alpha = binary_entropy(prob_digit0(sys, sys.alpha))
    s_beta = binary_entropy(prob_digit0(sys, sys.beta))
    if sys.alpha <= balanced <= sys.beta:
        entropy_max = LOG2
        argmax: Scalar = balanced
    elif balanced < sys.alpha:
        entropy_max = s_alpha
        argmax = sys.alpha
    else:
        entropy_max = s_beta
        argmax = sys.beta
    entropy_min = min(s_alpha, s_beta)
    return DimensionBounds(
        entropy_max=entropy_max,
        entropy_min=entropy_min,
        dim_upper=entropy_max / LOG2,
        dim_lower=entropy_min / LOG2,
        argmax_location=argmax,
    )


def repulsion_radius(sys: DeRhamSystem) -> Scalar:
    """Certified radius eps around the balanced state that the transposed
    digit-0 map escapes: |tA0(z) - (gamma-2)| > eps whenever
    |z - (gamma-2)| <= eps.

    The transposed digit-0 map is affine, z -> (a0*z + c0)/d0, with slope
    in (0, 1), so eps = margin * min(delta/(1 + slope), 2*(gamma-1)*margin)
    works, where delta is the map's displacement at the balanced state.
    Raises ConditionHoldsError when the digit-0 identity holds (the
    displacement is zero and no such radius exists).
    """
    cond0, _ = ac_conditions(sys)
    if cond0:
        raise ConditionHoldsError(
            "digit-0 identity holds; the balanced state is fixed and has "
            "no escape radius"
        )
    balanced = sys.balanced_state
    a0, _, c0, d0 = sys.A0.entries
    slope = a0 / d0
    delta = abs(apply_mobius(sys.tA0, balanced) - balanced)
    cap = 2 * (sys.gamma - 1) * _RADIUS_MARGIN
    eps = _RADIUS_MARGIN * min(delta / (1 + slope), cap)
    # Post-verification at both window endpoints; sufficient because the
    # displacement of an affine map is affine, so with equal signs and
    # magnitude > eps at both ends it stays > eps on the whole window.
    displacements = [apply_mobius(sys.tA0, balanced + s * eps) - balanced for s in (-1, 1)]
    if not all(abs(h) > eps for h in displacements):
        raise ArithmeticError(f"escape radius {eps} failed post-verification")
    if (displacements[0] > 0) != (displacements[1] > 0):
        raise ArithmeticError(f"escape radius {eps} window straddles a fixed point")
    if not 0 < eps < 2 * (sys.gamma - 1):
        raise ArithmeticError(f"escape radius {eps} outside (0, 2*(gamma-1))")
    return eps


def singular_dimension_bound(sys: DeRhamSystem) -> float:
    """Explicit dimension bound < 1 for a full-measure set when the
    digit-0 identity fails.

    With eps the certified escape radius, the entropy ceiling off the
    balanced window is e0 = max of the entropy at the two window
    endpoints (taking the max keeps the bound valid regardless of which
    side is closer to the fair law), and the returned bound is

        (log 2 - (log 2 - e0) * p_alpha / 2) / log 2

    where p_alpha is the digit-0 probability at the left state endpoint.
    """
    eps = repulsion_radius(sys)
    balanced = sys.balanced_state
    low = balanced - eps
    if not low > -sys.gamma:
        # eps < 2*(gamma-1) forces balanced - eps > -gamma.
        raise DomainError(f"window endpoint {low} at or below -gamma")
    e0 = max(
        binary_entropy(prob_digit0(sys, balanced + eps)),
        binary_entropy(prob_digit0(sys, low)),
    )
    p_alpha = float(prob_digit0(sys, sys.alpha))
    return (LOG2 - (LOG2 - e0) * p_alpha / 2.0) / LOG2


def classify(sys: DeRhamSystem) -> ClassificationReport:
    """Exact dichotomy: absolutely continuous iff both identities hold.

    Exact systems get a certified verdict; float systems are decided
    within tolerance and flagged "approx" (absolute continuity is not a
    robust property, so approx AC verdicts are not certifiable).
    """
    cond0, cond1 = ac_conditions(sys)
    if cond0 and cond1:
        from .solution import normal_form  # only this branch runs solution

        n0, _ = normal_form(sys)
        return ClassificationReport(
            ac_condition_0=True,
            ac_condition_1=True,
            verdict=ABSOLUTELY_CONTINUOUS,
            exactness=sys.mode,
            c0=n0.c,
        )
    bounds = dimension_bounds(sys)
    defect = singular_dimension_bound(sys) if not cond0 else None
    return ClassificationReport(
        ac_condition_0=cond0,
        ac_condition_1=cond1,
        verdict=SINGULAR,
        exactness=sys.mode,
        bounds=bounds,
        defect_bound=defect,
    )

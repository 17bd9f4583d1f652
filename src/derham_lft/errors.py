"""Semantic exception hierarchy shared by every module."""

from __future__ import annotations


class DeRhamError(Exception):
    """Base class for all library errors."""


class PoleError(DeRhamError, ZeroDivisionError):
    """The denominator c*z + d of a linear fractional map vanished at z."""


class ZeroMatrixError(DeRhamError, ValueError):
    """Renormalization of the zero matrix was requested."""


class DomainError(DeRhamError, ValueError):
    """Argument lies outside the mathematically admissible domain."""


class ValidationError(DeRhamError, ValueError):
    """A matrix pair violates one of the admissibility conditions.

    Carries the full list of violations as (condition, detail) pairs,
    where condition is one of "A1", "A2", "A3", "finite" or "derived",
    and the scalar mode ("exact" or "approx") the pair was checked in.
    """

    def __init__(self, violations: list[tuple[str, str]], mode: str | None = None):
        self.violations = list(violations)
        self.mode = mode
        msg = "; ".join(f"{cond}: {detail}" for cond, detail in self.violations)
        super().__init__(msg or "invalid system")

    @property
    def conditions(self) -> set[str]:
        return {cond for cond, _ in self.violations}


class NonConvergenceError(DeRhamError, RuntimeError):
    """An adaptive evaluation hit its depth cap before reaching tolerance.

    Carries the depth it reached and the width of its final enclosure.
    """

    def __init__(self, message: str, depth: int | None = None, width=None):
        super().__init__(message)
        self.depth = depth
        self.width = width


class ConditionHoldsError(DeRhamError, ValueError):
    """The quantitative defect bound requires the digit-0 algebraic
    identity to fail, but it holds for this system."""


class NotAbsolutelyContinuousError(DeRhamError, ValueError):
    """A closed-form operation was requested for a singular system."""


class FormMismatchError(DeRhamError, RuntimeError):
    """The normalized matrices do not match the one-parameter family that
    the absolute continuity identities force. Signals an internal
    inconsistency; unreachable for exact rational input."""

"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`EzmertonError`, so
callers (and the CLI) can distinguish domain failures from programming bugs.
"""

from __future__ import annotations


class EzmertonError(Exception):
    """Base class for all library errors."""


class InvalidParameters(EzmertonError):
    """Preference or market parameters outside the admissible ranges."""


class DomainError(EzmertonError):
    """A utility value lies outside the sign domain of the preferences."""


class UnsupportedRegime(EzmertonError):
    """Operation requires a preference regime it was not asked to handle."""


class IllPosed(EzmertonError):
    """The investment-consumption problem is ill-posed (eta <= 0)."""


class WellPosed(EzmertonError):
    """Raised by ill-posedness probes when the problem is in fact well-posed."""


class NotEvaluable(EzmertonError):
    """No finite utility process exists for the requested strategy."""


class DivergentIntegral(EzmertonError):
    """A consumption stream fails the integrability tail test."""


class DegenerateDenominator(EzmertonError):
    """A closed-form denominator vanished (e.g. H at its root)."""


class InvalidStep(EzmertonError):
    """Lattice construction asked for a non-positive time step."""


class DimensionMismatch(EzmertonError):
    """Grid shape does not match the lattice it claims to live on."""


class MissingLambda(EzmertonError):
    """An epsilon-perturbed solve needs a reference grid but none was given."""


class NotConverged(EzmertonError):
    """An iteration did not meet its tolerance.  The lattice solve is one
    explicit pass, so no solver here raises it; callers may still catch it."""


class PreconditionFailed(EzmertonError):
    """A solver precondition (order certificate, bounds) does not hold."""


class NotInClass(EzmertonError):
    """A process fails the self-similarity/order membership test."""


class SignDomainViolation(EzmertonError):
    """A grid violates its declared sign domain."""


class ValidationError(EzmertonError):
    """A scenario file failed schema validation."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ExperimentError(EzmertonError):
    """An experiment failed during execution."""

"""Exception types raised across the package.

Two broad classes matter to callers: configuration problems (bad names,
bad values, unusable input files) and numerical failures (solver
divergence, lost brackets, degenerate geometry).  The CLI maps them to
exit codes 2 and 3 respectively.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import RegionSide


class PwsIntError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PwsIntError):
    """Invalid configuration, registry name, or argument combination."""


class NumericalError(PwsIntError):
    """Base class for runtime numerical failures.

    ``k`` is the index of the step that failed, ``t`` its start time and
    ``side`` the ``RegionSide`` it started on, when known.
    """

    def __init__(self, message: str, k: int | None = None, t: float | None = None,
                 side: RegionSide | None = None):
        super().__init__(message)
        self.k = k
        self.t = t
        self.side = side


class EvaluationError(NumericalError):
    """A user-supplied function returned a non-finite value."""


class DegenerateTangency(NumericalError):
    """A field is numerically tangent to the switching surface."""


class NonTransversalCrossing(NumericalError):
    """Interface point classified as sliding or repelling; not integrable here."""


class DivergingFixedPoint(NumericalError):
    """Fixed-point iteration expands: the step size violates the contraction bound."""


class NoConvergence(NumericalError):
    """Iteration cap reached without meeting the tolerance."""


class SingularJacobian(NumericalError):
    """Newton Jacobian is numerically singular."""


class BracketError(NumericalError):
    """Root bracket endpoints do not have strictly opposite signs."""


class NoRealSeparation(NumericalError):
    """Quadratic bound requested with c >= b^2/(4a): roots are not real."""


class CrossingLocalizationFailed(NumericalError):
    """Could not isolate the interface crossing inside the step."""


class InvalidInitialCondition(NumericalError):
    """Trajectory must start strictly off the switching surface."""


class StepTooLarge(NumericalError):
    """The step is too large for the state it starts from.

    Raised when a step holds more interface crossings than
    ``engine.MAX_CROSSINGS_PER_STEP`` allows, and when the first step of a direct ``march`` finds no
    solution near the start state (the orbit escapes faster than the
    step can follow).
    """


class RunawaySwitching(NumericalError):
    """Total event count exceeded the configured cap."""


class FiniteTimeBlowUp(NumericalError):
    """The exact solution escapes to infinity before the horizon."""


class EventMismatch(NumericalError):
    """Computed and reference event sequences have different lengths."""


class InsufficientData(PwsIntError):
    """Not enough usable points for a regression or estimate."""

"""Error types raised by the toolkit.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from :class:`CritsenseError` so the CLI can map any of them to a
structured error artifact and exit code 1.
"""

from __future__ import annotations


class CritsenseError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def record(self) -> dict:
        """The error's type name and context, as artifacts report it."""
        return {"type": type(self).__name__, "context": self.context}


class UsageError(CritsenseError):
    """Malformed input that is the caller's fault (bad grammar, bad shapes)."""


class CatalogueError(UsageError):
    """Unknown gallery name; carries the list of known names."""


class NoConvergenceError(CritsenseError):
    """Iteration budget exhausted; best iterate attached in ``context``."""


class NonIsolatedZeroError(CritsenseError):
    """The vector field vanishes somewhere on the probe contour."""


class UnderSampledError(CritsenseError):
    """Winding accumulation did not settle."""


class DegenerateError(CritsenseError):
    """Hessian too close to singular for a sign-based index."""


class NotMorseError(CritsenseError):
    """A Morse-only operation was applied at a degenerate point."""


class NonGenericBoundaryError(CritsenseError):
    """Boundary zeros stayed non-isolated after perturbation or were left
    unresolved, or a genuine boundary critical point was hit."""


class FlowSingularError(CritsenseError):
    """The flow denominator vanished away from the chart center."""


class CoverageError(CritsenseError):
    """A chart radius does not cover the requested ball."""


class NoSeparationError(CritsenseError):
    """No path with minimum below f(p1) was found."""


class PreconditionError(CritsenseError):
    """A documented precondition failed (e.g. endpoint not a local max)."""


class UnsupportedError(CritsenseError):
    """Requested computation is outside the supported dimension/shape set."""

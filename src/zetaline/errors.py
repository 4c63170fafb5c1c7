"""Exception hierarchy shared by all evaluators.

The command line front end maps these onto process exit codes, so the split
mirrors the failure categories a caller can act on: bad inputs, poles,
regions where no algorithm is available, unreachable accuracy, and blown
resource budgets.
"""

from __future__ import annotations

__all__ = [
    "ZetalineError",
    "DomainError",
    "PoleError",
    "UnsupportedRegionError",
    "TruncationValidityError",
    "AccuracyError",
    "ResourceBudgetError",
]


class ZetalineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZetalineError, ValueError):
    """Arguments outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation point too close to a pole."""

    def __init__(self, message: str, distance: float = 0.0):
        super().__init__(message)
        self.distance = distance


class UnsupportedRegionError(DomainError):
    """Arguments are mathematically legal but no implemented algorithm
    covers the region (e.g. a direct series outside its convergence zone)."""


class TruncationValidityError(DomainError):
    """Truncated-sum formula requested outside its validity window |t| <= x."""


class AccuracyError(ZetalineError):
    """The requested tolerance could not be certified.

    ``achieved`` carries the best error bound that was reached.
    """

    def __init__(self, message: str, achieved: float = float("inf")):
        super().__init__(message)
        self.achieved = achieved


class ResourceBudgetError(ZetalineError):
    """A lattice/series budget (point count, term count, memory) was exceeded."""

"""Exception hierarchy shared across the package."""


class HomologyLabError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(HomologyLabError):
    """Malformed graph or Hamiltonian input."""


class CapExceededError(HomologyLabError):
    """Simplex enumeration exceeded the configured cap."""

    def __init__(self, dimension, cap):
        self.dimension = dimension
        self.cap = cap
        super().__init__(
            f"simplex cap {cap} exceeded while enumerating dimension {dimension}"
        )


class DimensionError(HomologyLabError):
    """Operation requested beyond the built dimension range."""


class GapAmbiguityError(HomologyLabError):
    """Numeric eigenvalue cluster straddles the kernel tolerance."""


class UnsupportedStateError(HomologyLabError):
    """Gadget construction is not implemented for this (m, term-structure).

    The pipeline itself is generic: an externally supplied (K, R) pair can be
    passed through ``fill_cycle`` and the same verification suite.
    """


class OrientationAlignmentError(HomologyLabError):
    """The pushed fundamental cycle does not match the amplitude sign pattern."""


class ScheduleError(HomologyLabError):
    """Invalid (g, t, m, c) schedule parameters."""


class BranchMatchingError(HomologyLabError):
    """Eigenvalue branch tracking across the lambda grid is ambiguous."""


class UsageError(HomologyLabError):
    """Command-line usage error (exit code 1)."""

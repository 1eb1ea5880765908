"""Exception types shared across the package."""


class BiharmError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(BiharmError):
    """A series evaluation failed to reach the requested tolerance."""


class DimensionTooLarge(BiharmError):
    """A dense lattice sum would exceed the configured operation budget."""


class RankBudgetExceeded(BiharmError):
    """A separated representation would exceed the configured rank budget."""


class UnsupportedDimension(BiharmError, ValueError):
    """The requested space dimension is outside the method's domain."""


class QuadratureDivergence(BiharmError):
    """A node sum or radius that the quadrature rule does not resolve."""


class SupportTruncated(BiharmError):
    """Density samples do not cover the kernel's effective support."""

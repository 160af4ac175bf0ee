"""Exception types shared across the package."""


class GnkError(Exception):
    """Base class for all package-specific errors."""


class NonConvergent(GnkError):
    """Segment halving hit its cap without settling a winding count."""


class ZeroCoefficient(GnkError):
    """The coefficient function vanishes (or nearly vanishes) on the grid."""


class OddGridSize(GnkError):
    """The alternate-point conjugation rule requires an even number of grid nodes."""


class CenterNotInHole(GnkError):
    """The Mobius center must lie strictly inside the designated hole."""


class TooCloseToBoundary(GnkError, UserWarning):
    """Near-boundary field evaluation: a warning, or an error under a warning filter."""


class InconsistentSystem(GnkError):
    """The discrete integral equation could not be solved to tolerance."""


class ConstancyViolation(GnkError):
    """The correction h deviates from per-curve constancy far beyond the solve residual."""

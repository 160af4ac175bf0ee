"""Exception types shared across the package."""


class GnkError(Exception):
    """Base class for all package-specific errors."""


class PointTooClose(GnkError):
    """A probe point lies too close to a curve for a reliable winding count."""


class NonConvergent(GnkError):
    """Grid refinement hit its cap without settling on an integer winding."""


class ZeroCoefficient(GnkError):
    """The coefficient function vanishes (or nearly vanishes) on the grid."""


class OddGridSize(GnkError):
    """The alternate-point conjugation rule requires an even number of grid nodes."""


class DiagonalSingular(GnkError):
    """The singular companion kernel was requested at a same-curve diagonal point."""


class CenterNotInHole(GnkError):
    """The Mobius center must lie strictly inside the designated hole."""


class TooCloseToBoundary(GnkError, UserWarning):
    """Near-boundary field evaluation: a warning, or an error under a warning filter."""


class InconsistentSystem(GnkError):
    """The discrete integral equation could not be solved to tolerance."""


class ConstancyViolation(GnkError):
    """The correction h deviates from per-curve constancy far beyond the solve residual."""

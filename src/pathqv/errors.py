"""Exception types shared across the package."""


class PQVError(Exception):
    """Base class for all library errors."""


class ParameterError(PQVError, ValueError):
    """Invalid argument or configuration value."""


class ResolutionError(PQVError):
    """Master grid too coarse for the requested construction (raise M)."""


class GridMismatchError(ParameterError):
    """Times or indices that do not live on the expected master grid."""


class ExhaustionError(PQVError):
    """A defining infimum/supremum is not attained within the available levels."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class GroupingError(PQVError):
    """A coarse cell contains no fine partition point."""


class PairingError(PQVError):
    """No mesh-matched level pairing between two partition sequences."""


class StatisticalPowerError(PQVError):
    """Too few Monte Carlo samples for the requested tail statistic."""


class IdentityCheckError(PQVError):
    """An internal algebraic identity failed beyond rounding tolerance."""

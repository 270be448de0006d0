"""Exception types raised across the simulator."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleDimensionError(SimulationError):
    """Antenna/stream dimensions cannot support the requested operation."""


class OverheadExceedsCoherenceError(SimulationError):
    """Pilot overhead consumes more than the whole coherence block."""


class InvalidConfigurationError(SimulationError):
    """A scenario or placement parameter violates its constraints."""


class SingularMatrixError(SimulationError):
    """A matrix that must be inverted is numerically singular."""


class UnsupportedConfigurationError(SimulationError):
    """The requested configuration is outside the supported scope."""


class ConvergenceError(SimulationError):
    """An iterative solver did not converge within its iteration cap."""

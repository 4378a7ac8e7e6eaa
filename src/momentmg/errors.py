"""Exception types shared across the solver."""


class ConfigError(ValueError):
    """A malformed, non-finite or physically inconsistent configuration."""


class MomentError(Exception):
    """Base class for solver-specific failures."""


class PositivityError(MomentError):
    """A state with non-positive density or temperature was produced."""


class EquilibriumDomainError(MomentError):
    """The relaxation target is outside its admissible parameter domain
    (e.g. a non-SPD anisotropy tensor)."""


class BoundaryError(MomentError):
    """The wall treatment received an unphysical inner state."""


class ConvergenceError(MomentError):
    """The iteration could not proceed (e.g. positivity back-off exhausted,
    a non-finite residual).  Raised out of ``solve``, ``history`` holds the
    convergence records of the iterations completed before the stop."""

    def __init__(self, message: str):
        super().__init__(message)
        self.history: list = []

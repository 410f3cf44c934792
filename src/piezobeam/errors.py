"""Exception types shared across the package."""


class PiezobeamError(Exception):
    """Base class for all package errors."""


class ProfileEvaluationError(PiezobeamError):
    """A delay or weight profile returned a non-finite value."""


class InfeasibleCertificateError(PiezobeamError):
    """The declared profile bounds admit no decay certificate."""


class GridError(PiezobeamError):
    """Invalid spatial grid configuration."""


class ConfigError(PiezobeamError):
    """Invalid scenario or numerics configuration."""


class HistoryUnderrunError(PiezobeamError):
    """A delayed-velocity query fell before the start of the history buffer."""


class DivergenceError(PiezobeamError):
    """The time integration blew up (energy growth guard tripped)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MultiplierSearchError(PiezobeamError):
    """The doubling search for Lyapunov multipliers did not terminate."""


class InsufficientDataError(PiezobeamError):
    """Not enough positive-energy samples for a decay-rate fit."""


class UndefinedRatioError(PiezobeamError):
    """Equivalence ratios are undefined on an all-zero-energy trajectory."""


class SweepSpecError(ConfigError):
    """Invalid sweep specification (bad axis or parameter path)."""

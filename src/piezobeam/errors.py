"""Exception types shared across the package."""


class PiezobeamError(Exception):
    """Base class for all package errors."""


class ProfileEvaluationError(PiezobeamError):
    """A delay or weight profile returned a non-finite value."""


class GridError(PiezobeamError):
    """Invalid spatial grid configuration."""


class ConfigError(PiezobeamError):
    """Invalid scenario or numerics configuration."""


class HistoryUnderrunError(PiezobeamError):
    """A state's delayed-velocity sample falls outside the stamps its history
    serves then; refused when the history is built, naming the step."""


class DivergenceError(PiezobeamError):
    """The time integration blew up (energy growth guard tripped)."""


class MultiplierSearchError(PiezobeamError):
    """No admissible Lyapunov multipliers: a pre-check failed, or some
    multiplier's inequalities cannot clear 1 or leave the float range."""


class InsufficientDataError(PiezobeamError):
    """Not enough positive-energy samples for a decay-rate fit."""


class UndefinedRatioError(PiezobeamError):
    """Equivalence ratios are undefined on an all-zero-energy trajectory."""


class SweepSpecError(ConfigError):
    """Invalid sweep specification (bad axis or parameter path)."""

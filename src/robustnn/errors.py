"""Exception types shared across the package.

Every error raised deliberately by this package derives from RobustnnError,
so callers (and the command-line driver) can distinguish diagnosed failures
from genuine bugs.
"""

__all__ = [
    "RobustnnError", "ParameterError", "ShapeError", "SolverError", "ConfigurationError",
    "DegenerateScenarioError", "SampleSizeError", "UnsupportedSettingError", "DatasetError",
]


class RobustnnError(Exception):
    """Base class for all errors raised by robustnn."""


class ParameterError(RobustnnError, ValueError):
    """An argument or distribution parameter is outside its valid range or domain."""


class ShapeError(RobustnnError, ValueError):
    """Array arguments have incompatible shapes or lengths."""


class SolverError(RobustnnError, RuntimeError):
    """A numerical solver failed to bracket or converge to a root."""


class ConfigurationError(RobustnnError, ValueError):
    """A scenario, model, or config-file combination is not expressible."""


class DegenerateScenarioError(RobustnnError, ValueError):
    """A scenario's derived quantities leave nothing meaningful to simulate."""


class SampleSizeError(RobustnnError, ValueError):
    """Too few samples for the procedure, e.g. one row in a class for leave-one-out or CV."""


class UnsupportedSettingError(RobustnnError, ValueError):
    """The requested analysis is only defined for a restricted setting."""


class DatasetError(RobustnnError, ValueError):
    """A dataset file failed to parse or validate."""

"""Exception types shared across the toolkit."""


class QvikitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(QvikitError):
    """A required constant or configuration value is missing or inconsistent."""


class ParseError(ConfigError):
    """Expression text was rejected.

    Carries the byte offset of the offending token in ``offset``. A problem
    file's expressions are configuration, so the loader's every rejection is
    a ConfigError.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(QvikitError):
    """Expression evaluation divided by zero or produced a non-finite value."""


class NoConvergence(QvikitError):
    """An inner iteration hit its cap; ``achieved`` holds the residual it reached."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class SingularLinearPart(QvikitError):
    """A linear part that must be invertible is numerically singular."""


class BracketingFailure(QvikitError):
    """The 1D bracket does not straddle the requested value."""


class SamplingError(QvikitError):
    """A sampling plan produced no usable pairs."""


class DiagnosticsError(QvikitError):
    """Not enough usable data points for a rate fit."""

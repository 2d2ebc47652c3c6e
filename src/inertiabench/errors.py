"""Exception types shared across the toolkit."""


class InertiaBenchError(Exception):
    """Base of every error the library raises for bad input or misuse."""


class ShapeError(InertiaBenchError, ValueError):
    """Array shapes are inconsistent with an operation's contract."""


class NumericError(InertiaBenchError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class UsageError(InertiaBenchError, RuntimeError):
    """API called out of order, e.g. backward before forward."""


class ParseError(InertiaBenchError, ValueError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class DataError(InertiaBenchError, ValueError):
    """Semantically invalid data (e.g. non-monotonic timestamps)."""


class CoverageError(DataError):
    """Ground truth does not span the requested time range."""


class DegenerateChannelError(DataError):
    """A channel has zero spread, so it cannot be normalized."""

    def __init__(self, channel: str):
        super().__init__(channel)
        self.channel = channel

    def __str__(self):
        return f"channel '{self.channel}' has zero spread"


class ConfigError(InertiaBenchError, ValueError):
    """Invalid or unknown keys in a configuration file."""


class StageError(InertiaBenchError, RuntimeError):
    """Failure wrapped with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(stage, cause)
        self.stage = stage
        self.cause = cause

    def __str__(self):
        return f"[{self.stage}] {self.cause}"

"""Exception types shared across the package."""


class RpsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RpsError, ValueError):
    """Invalid parameter combination (measure grammar, norm bounds, damping, ...)."""


class StreamOrderError(RpsError, ValueError):
    """Batch timestamps arrived out of order."""


class WeightOverflowError(RpsError, OverflowError):
    """A pattern mass does not fit a float (the largest is about 1.8e308)."""


class ReservoirNotReady(RpsError, RuntimeError):
    """Feature vectors need a full reservoir."""


class ParseError(RpsError, ValueError):
    """Malformed input line.

    line_no is 1-based when the parse came from a line reader, else None.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)

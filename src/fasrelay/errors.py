"""Exception types shared across the package."""


class FasRelayError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(FasRelayError, ValueError):
    """Raised when a link distance collapses to zero (UAV on top of an endpoint)."""


class SnrScaleError(FasRelayError, ValueError):
    """Raised when a scenario's SNR scale leaves the double range, so that
    its BLERs would overflow to inf or NaN."""


class CausalityError(FasRelayError, ValueError):
    """Raised when port scanning cannot finish within the transmission block."""


class MonotonicityError(FasRelayError, RuntimeError):
    """Raised when a hop-2 table falls with vartheta (a `Hop2Table` fill) or
    an end-to-end BLER rises with power (`min_power`'s precheck)."""


class TableAccuracyError(FasRelayError, RuntimeError):
    """Raised when a tabulated BLER departs from the direct kernel by more
    than its accuracy contract."""


class ConfigError(FasRelayError, ValueError):
    """Config-file parse or validation failure, annotated with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

"""Exception types shared across the package."""


class PlinkError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(PlinkError, ValueError):
    """An argument violates a documented precondition."""


class OutOfBoundsError(PlinkError, ValueError):
    """Query point falls outside the scaled unit cube."""


class CorruptedModelError(PlinkError, RuntimeError):
    """Model parameters contain NaN."""


class DivergenceError(PlinkError, RuntimeError):
    """Training produced a non-finite loss or update."""


class InvalidFrameError(PlinkError, ValueError):
    """Scan frame poses or timestamps are inconsistent."""


class ConfigError(PlinkError, ValueError):
    """Run configuration file or flags are invalid."""

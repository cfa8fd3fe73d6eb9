"""Exception types shared across the package, each with its CLI exit code."""


class PlinkError(Exception):
    """Base class for all package-specific errors: exit 2, ``error: ``."""


class InvalidInputError(PlinkError, ValueError):
    """An argument or input file violates a documented precondition: exit 2,
    ``error: ``."""


class DivergenceError(PlinkError, RuntimeError):
    """Training produced a non-finite loss or update: exit 3, ``training diverged: ``."""


class ConfigError(PlinkError, ValueError):
    """Run configuration file or flags are invalid: exit 2, ``invalid config: ``."""

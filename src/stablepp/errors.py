"""Error taxonomy shared across the package.

Domain, window, and config errors are ValueError subclasses so that callers
doing coarse exception handling keep working; starvation is a RuntimeError
because it arises from data, not arguments.
"""

__all__ = ["StableppError", "DomainError", "WindowError", "RangeError", "ConfigError",
           "StarvationError"]


class StableppError(Exception):
    """Base class for all package errors."""


class DomainError(StableppError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class WindowError(StableppError, ValueError):
    """A test-function support or threshold is incompatible with the observation window."""


class RangeError(StableppError, ValueError):
    """A floating-point range was exceeded (overflow, underflow, or a runaway truncation)."""


class ConfigError(StableppError, ValueError):
    """A configuration document is malformed, has unknown fields, or fails validation."""


class StarvationError(StableppError, RuntimeError):
    """Rejection sampling cannot reach the requested number of accepted samples."""

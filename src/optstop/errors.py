"""Exception types shared across the package."""


class OptstopError(Exception):
    """Base class for all package-specific errors."""


class SingularInputError(OptstopError, ValueError):
    """Input lies in the excluded (measure-zero) set of a model."""


class ResourceLimitError(OptstopError, RuntimeError):
    """A configured resource budget would be exceeded."""

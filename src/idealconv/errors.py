"""Exception types shared across the package."""

__all__ = ["InvalidArgumentError", "InsufficientDataError", "DataFormatError"]


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class InsufficientDataError(ValueError):
    """A stream ended before enough elements were available."""


class DataFormatError(ValueError):
    """External input (e.g. a set file) is malformed."""

"""Exceptions shared across the package."""

__all__ = ["CapExceeded", "InternalConsistencyError"]


class CapExceeded(RuntimeError):
    """A computation was refused because it exceeds a resource cap."""


class InternalConsistencyError(RuntimeError):
    """An exactness invariant failed; this always indicates a bug."""

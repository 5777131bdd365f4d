"""Exception hierarchy shared across the tool."""

from __future__ import annotations


class LeakLabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LeakLabError):
    """Malformed source text or an ill-formed program, at ``line:col`` if given."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class AnnotationError(LeakLabError):
    """Missing or ill-formed proof-outline annotation."""


class DomainError(LeakLabError):
    """A runtime value escaped its declared finite domain."""


class SnapshotUndefined(LeakLabError):
    """An assertion referenced a clock snapshot at a never-reached location."""


class DeadlockError(LeakLabError):
    """All threads blocked with work remaining."""


class BudgetExceeded(LeakLabError):
    """A configured step or configuration budget was exhausted."""

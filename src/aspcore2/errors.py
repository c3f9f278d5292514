"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import Optional

from .syntax import Span


class AspCoreError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def format(self, filename: str = "<input>") -> str:
        if self.span is not None:
            return f"{filename}:{self.span.line}:{self.span.column}: {self.message}"
        return f"{filename}: {self.message}"


class LexError(AspCoreError):
    """Input contains a character sequence matching no lexical rule."""


class ParseError(AspCoreError):
    """Token stream does not derive from the grammar."""


class BoundExceeded(AspCoreError):
    """A derivable atom needs an integer or nesting depth beyond the
    declared universe bounds."""


class CapacityExceeded(AspCoreError):
    """Solving ran out of a bound: the search's node budget."""

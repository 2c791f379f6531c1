"""Exception types for parse errors, exceeded budgets and exceeded caps.

A bad argument to a library function (an atom outside the alphabet,
traces of unequal length) raises the built-in `ValueError` instead.
"""

from __future__ import annotations


class PptError(Exception):
    """Base class of the exception types this package defines."""


class ParseError(PptError):
    """Syntax error in a `.ppt` source text.

    `line` and `column` are 1-based and point at the first character of
    the offending token.  `message` says what was expected there and what
    was found, where the parser knows both.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")

    def __reduce__(self):
        # The inherited reduction would call __init__ with the one
        # formatted string above.
        return type(self), (self.line, self.column, self.message)


class RestrictionError(ParseError):
    """Well-formed syntax that violates a rule-form restriction.

    Raised when an initial or final rule body is not a conjunction of
    regular literals, or when a final rule has a nonempty head.
    """


class BudgetExceeded(PptError):
    """A model search needs more work units than its budget; the message
    names the point it had reached."""


class SccTooLarge(PptError):
    """A strongly connected component exceeds the loop-enumeration cap."""

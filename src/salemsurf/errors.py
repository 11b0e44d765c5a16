"""Exception taxonomy.

One class per distinction a caller makes; all inherit from
SalemsurfError. Verification mismatches are not exceptions (they become
fail-status report nodes); exceptions mean the computation itself could
not proceed, and the message names what went wrong.
"""


class SalemsurfError(Exception):
    pass


class ParseError(SalemsurfError):
    """Malformed text or data."""


class InvariantViolation(SalemsurfError):
    """Well-formed input that breaks a declared shape or mathematical
    condition."""


class NoSolution(SalemsurfError):
    """A search or certification has no answer, or no unique one."""


class DomainError(SalemsurfError):
    """An arithmetic domain error: division by zero, the log of zero, a
    zero polynomial where a nonzero one is needed, an inexact division."""

"""Exception hierarchy shared across the package.

Everything user-triggerable derives from FibgreedyError so the CLI can map
bad input to a single exit code; SelfCheckError marks internal cross-checks
that should never fire and is reported separately.
"""

__all__ = [
    "FibgreedyError",
    "RationalParseError",
    "SequenceValidationError",
    "ThetaDomainError",
    "TermLimitError",
    "SelfCheckError",
]


class FibgreedyError(Exception):
    """Base class for all package-specific errors."""


class RationalParseError(FibgreedyError, ValueError):
    """Text does not match the rational grammar (p/q or finite decimal)."""


class SequenceValidationError(FibgreedyError, ValueError):
    """Sequence seeds violate a required condition; the message names it."""


class ThetaDomainError(FibgreedyError, ValueError):
    """Target theta lies outside the half-open interval (0, 1]."""


class TermLimitError(FibgreedyError, ValueError):
    """More greedy terms requested than the configured cap allows."""


class SelfCheckError(FibgreedyError, RuntimeError):
    """An internal consistency check that should never fail did fail."""

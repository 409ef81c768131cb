"""Exception types shared across the package.

Every error that corresponds to a violated mathematical precondition gets
its own class so callers (and the CLI) can map failures to exit codes
without string matching.
"""


class TsirelsonError(Exception):
    """Base class for all package errors."""


class ParseError(TsirelsonError):
    """Malformed textual input; carries a position when available."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at position {position})"
        super().__init__(message + where)


class NonSuccessive(TsirelsonError):
    """Sets handed to an admissibility check overlap or are out of order."""


class Unbounded(TsirelsonError):
    """A family admitted no finite maximal consecutive member."""


class IrrationalInRationalMode(TsirelsonError):
    """A weight with no exact rational value was requested in rational mode."""


class EmptyVector(TsirelsonError):
    """An operation that needs a nonzero vector received an empty one."""


class OverBudget(TsirelsonError):
    """Input refused because it exceeds a documented size budget."""


class SupportTooLarge(OverBudget):
    """Input support exceeds the documented bound for an exhaustive routine."""


class InvalidInput(TsirelsonError):
    """A functional failed validation where a valid one was required."""


class HypothesisViolated(TsirelsonError):
    """The mathematical hypothesis of an operation fails."""


class InsufficientPool(TsirelsonError):
    """A block pool ran out before a construction finished."""


class PoolExhausted(InsufficientPool):
    """Generator pool stopped while an averaging tree was being built."""


class SizeOverflow(OverBudget):
    """A construction would exceed its configured leaf budget."""


class BudgetExceeded(SizeOverflow):
    """An audit construction does not fit the configured budget."""


class LengthMismatch(TsirelsonError):
    """Two block sequences that must have equal length do not."""


class GroundTooLarge(OverBudget):
    """Exhaustive enumeration requested beyond the documented ground bound."""


class SurgeryFailed(TsirelsonError):
    """Tree surgery could not certify its contract on this instance."""

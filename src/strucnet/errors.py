"""Exception types shared across the toolkit."""

from __future__ import annotations


class StrucnetError(ValueError):
    """An input or setting the toolkit refuses; the command line prints it after 'error: '."""


class DimensionMismatch(StrucnetError):
    """Operands have incompatible shapes for the requested operation."""


class PatternParseError(StrucnetError):
    """A pattern grid contains an invalid token; the message carries the position."""


class NetworkFormatError(StrucnetError):
    """A network description file is malformed; the message names the offending field."""


class NumericBreakdown(StrucnetError):
    """A numeric routine failed on a sampled realization, or refused its size; the message says which."""


class AssumptionViolated(StrucnetError):
    """A structured network fails validation; violations lists the located messages."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"network fails validation: {'; '.join(self.violations)}")

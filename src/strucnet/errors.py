"""Exception types shared across the toolkit."""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class PatternParseError(ValueError):
    """A pattern grid contains an invalid token; the message carries the position."""


class NetworkFormatError(ValueError):
    """A network description file is malformed; the message names the offending field."""


class NumericBreakdown(ValueError):
    """A numeric routine failed on a sampled realization, or refused its size; the message says which."""


class AssumptionViolated(ValueError):
    """A structured network fails validation; violations lists the located messages."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"network fails validation: {'; '.join(self.violations)}")

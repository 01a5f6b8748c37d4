"""Exception types shared across the toolkit."""

from __future__ import annotations


class StrucnetError(ValueError):
    """An input or setting the toolkit refuses; the command line prints it after 'error: '."""


class AssumptionViolated(StrucnetError):
    """A structured network fails validation; violations lists the located messages."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(self.violations)  # args, so pickle and copy rebuild it from the list

    def __str__(self) -> str:
        return f"network fails validation: {'; '.join(self.violations)}"

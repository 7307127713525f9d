"""Exception types used across the package."""

from __future__ import annotations

from typing import Any, Optional


class ConfigurationError(ValueError):
    """Invalid configuration or usage (bad parameter, dimension mismatch, bad file)."""


class BoundInapplicableError(ValueError):
    """The consensus lower bound's hypothesis (epsilon > enclosing radius) fails.

    Distinct from a bound of zero: the formula simply does not apply.
    """


class InvariantViolation(RuntimeError):
    """A runtime invariant check failed; aborts the trial that raised it.

    ``event`` holds the inputs of the failed update step when the check had
    them: ``i``, ``j``, ``mu``, and rows i and j ``before`` and ``after`` it.
    """

    def __init__(self, invariant: str, step: int, slack: float, detail: str = "",
                 event: Optional[dict[str, Any]] = None):
        self.invariant = invariant
        self.step = step
        self.slack = slack
        self.detail = detail
        self.event = event
        message = f"invariant {invariant!r} violated at step {step}: slack={slack:.3e}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)

    def __reduce__(self):
        # rebuilt from its fields, not from the message alone, as a trial
        # worker sends it back
        return type(self), (self.invariant, self.step, self.slack, self.detail, self.event)

    def as_record(self) -> dict[str, Any]:
        """JSON-serializable diagnostic record."""
        record = {
            "invariant": self.invariant,
            "step": self.step,
            "slack": float(self.slack),
            "detail": self.detail,
        }
        record.update(self.event or {})
        return record

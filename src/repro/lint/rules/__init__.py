"""Rule registry: one place that knows every rule class."""

from __future__ import annotations

from repro.lint.rules.base import FileContext, Rule
from repro.lint.rules.rl001_determinism import DeterminismRule

__all__ = [
    "DeterminismRule",
    "FileContext",
    "Rule",
    "default_rules",
]


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of every rule, in code order.

    A factory (not a module-level tuple) so that per-run state a rule
    may keep never leaks between invocations.
    """
    return (DeterminismRule(),)

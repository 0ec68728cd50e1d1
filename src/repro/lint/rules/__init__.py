"""Rule registry: one place that knows every rule class."""

from __future__ import annotations

from repro.lint.rules.base import FileContext, FlowRule, Rule
from repro.lint.rules.rl001_determinism import DeterminismRule
from repro.lint.rules.rl003_units import UnitsDisciplineRule
from repro.lint.rules.rl005_seedflow import SeedFlowRule
from repro.lint.rules.rl006_dimensions import DimensionRule
from repro.lint.rules.rl007_telemetry import TelemetryCostRule
from repro.lint.rules.rl008_scheduler import SchedulerTiebreakRule
from repro.lint.rules.rl009_tolerances import ToleranceRule
from repro.lint.rules.rl010_process import ProcessSafetyRule
from repro.lint.rules.rl011_simtime import SimTimeRule
from repro.lint.rules.rl012_numpy import NumpyDisciplineRule

__all__ = [
    "DeterminismRule",
    "DimensionRule",
    "FileContext",
    "FlowRule",
    "NumpyDisciplineRule",
    "ProcessSafetyRule",
    "Rule",
    "SchedulerTiebreakRule",
    "SeedFlowRule",
    "SimTimeRule",
    "TelemetryCostRule",
    "ToleranceRule",
    "UnitsDisciplineRule",
    "default_rules",
]


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of every rule, in code order.

    A factory (not a module-level tuple) so that per-run state a rule
    may keep never leaks between invocations. RL005-RL012 are
    :class:`FlowRule` subclasses: they run once per invocation over the
    whole-program :class:`~repro.lint.flow.project.Project` instead of
    file by file.
    """
    return (
        DeterminismRule(),
        UnitsDisciplineRule(),
        SeedFlowRule(),
        DimensionRule(),
        TelemetryCostRule(),
        SchedulerTiebreakRule(),
        ToleranceRule(),
        ProcessSafetyRule(),
        SimTimeRule(),
        NumpyDisciplineRule(),
    )

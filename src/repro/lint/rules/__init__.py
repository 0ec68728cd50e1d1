"""Rule registry: one place that knows every rule class."""

from __future__ import annotations

from repro.lint.rules.base import FileContext, FlowRule, Rule
from repro.lint.rules.rl001_determinism import DeterminismRule
from repro.lint.rules.rl002_protocol import ExperimentProtocolRule
from repro.lint.rules.rl003_units import UnitsDisciplineRule
from repro.lint.rules.rl004_cache import CacheKeyHygieneRule
from repro.lint.rules.rl005_seedflow import SeedFlowRule
from repro.lint.rules.rl006_dimensions import DimensionRule
from repro.lint.rules.rl007_telemetry import TelemetryCostRule
from repro.lint.rules.rl008_scheduler import SchedulerTiebreakRule
from repro.lint.rules.rl009_tolerances import ToleranceRule
from repro.lint.rules.rl010_process import ProcessSafetyRule
from repro.lint.rules.rl011_simtime import SimTimeRule
from repro.lint.rules.rl012_numpy import NumpyDisciplineRule
from repro.lint.rules.rl013_blocking import AsyncBlockingRule
from repro.lint.rules.rl014_races import AsyncSharedStateRule
from repro.lint.rules.rl015_taskhygiene import AsyncTaskHygieneRule
from repro.lint.rules.rl016_typestate import SessionTypestateRule

__all__ = [
    "AsyncBlockingRule",
    "AsyncSharedStateRule",
    "AsyncTaskHygieneRule",
    "CacheKeyHygieneRule",
    "DeterminismRule",
    "DimensionRule",
    "ExperimentProtocolRule",
    "FileContext",
    "FlowRule",
    "NumpyDisciplineRule",
    "ProcessSafetyRule",
    "Rule",
    "SchedulerTiebreakRule",
    "SeedFlowRule",
    "SessionTypestateRule",
    "SimTimeRule",
    "TelemetryCostRule",
    "ToleranceRule",
    "UnitsDisciplineRule",
    "default_rules",
]


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of every rule, in code order.

    A factory (not a module-level tuple) because rules may memoize
    per-run state -- RL002 caches each experiments directory's registry
    -- and invocations must not see each other's caches. RL005-RL016 are
    :class:`FlowRule` subclasses: they run once per invocation over the
    whole-program :class:`~repro.lint.flow.project.Project` instead of
    file by file.
    """
    return (
        DeterminismRule(),
        ExperimentProtocolRule(),
        UnitsDisciplineRule(),
        CacheKeyHygieneRule(),
        SeedFlowRule(),
        DimensionRule(),
        TelemetryCostRule(),
        SchedulerTiebreakRule(),
        ToleranceRule(),
        ProcessSafetyRule(),
        SimTimeRule(),
        NumpyDisciplineRule(),
        AsyncBlockingRule(),
        AsyncSharedStateRule(),
        AsyncTaskHygieneRule(),
        SessionTypestateRule(),
    )

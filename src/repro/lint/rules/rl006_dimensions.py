"""RL006: dimensional analysis of the QA math.

The paper's control laws mix four dimensions -- bytes, seconds, rates
(``C``, ``R`` in B/s) and the AIMD slope ``S`` in B/s^2 -- and several of
its formulas only balance through a square root (the section 2.2 drop
rule compares ``na*C - R`` against ``sqrt(2*S*total_buf)``; both sides
are B/s). A transposed operand produces plausible-looking floats and
silently wrong buffer targets, which no runtime test pins down unless it
crosses a golden trace.

This rule runs the :mod:`repro.lint.flow` dataflow engine over every
module that imports the unit aliases of ``repro.core.units`` and reports
each operation whose operands *definitely* carry different dimensions:
additions, subtractions, comparisons, ``min``/``max``, call arguments
against annotated parameters, returns against the declared return type,
and stores into annotated attributes or typed containers.
"""

from __future__ import annotations

from typing import ClassVar

from repro.lint.flow.dataflow import analyze_module
from repro.lint.flow.project import Project
from repro.lint.flow.units import UNITS_MODULE
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation


def _uses_units(project: Project, module: str) -> bool:
    info = project.modules[module]
    if info.name == UNITS_MODULE:
        return False  # the alias definitions themselves
    for target in info.symbols.imports.values():
        if target == UNITS_MODULE or target.startswith(UNITS_MODULE + "."):
            return True
    return False


class DimensionRule(FlowRule):
    code: ClassVar[str] = "RL006"
    title: ClassVar[str] = "dimensional analysis"
    rationale: ClassVar[str] = (
        "unit-annotated QA math must be dimensionally consistent: adding, "
        "comparing, passing, or returning a B/s quantity where B or B/s^2 "
        "is expected corrupts buffer targets silently"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        summaries = project.summaries()
        for name in sorted(project.modules):
            if not _uses_units(project, name):
                continue
            ctx = project.modules[name].ctx
            for func, problem in analyze_module(project, name, summaries):
                out.append(
                    ctx.violation(
                        problem.node,
                        self.code,
                        f"in {func.name}(): {problem.message}",
                    )
                )
        return out

"""RL011: simulation-time discipline at scheduling call sites.

The event engine's clock only moves forward; an event scheduled in the
past (``schedule`` with a negative delay, ``schedule_at`` earlier than
``sim.now``) executes *immediately but out of order* relative to the
events that put the clock where it is -- a silent causality inversion
that shifts every subsequent golden trace. The engine cannot reject
such events without taking a branch on the per-event hot path, so the
discipline is enforced statically at every call site instead:

- **Delays are seconds.** The first argument of ``schedule``/
  ``schedule_at``/``schedule_many`` is typed by the dataflow engine
  (summaries included, so a delay computed by a helper is still seen);
  a value that definitely carries a non-time dimension (bytes, a rate)
  is a transposed-argument bug.
- **No negative literal delays.** ``schedule(-0.1, ...)`` is flagged
  outright.
- **Anchor arithmetic must be clamped.** ``schedule(start - sim.now,
  ...)`` goes negative whenever the anchor has passed; the repo idiom
  is ``schedule(max(0.0, start - sim.now), ...)`` and the unclamped
  subtraction is flagged. Likewise ``schedule_at(sim.now - x, ...)``
  is in the past for any positive ``x``.

``repro.sim.engine`` itself is exempt: it implements the clock.
"""

from __future__ import annotations

import ast
from typing import Any, ClassVar, Optional

from repro.lint.flow.dataflow import FunctionAnalysis
from repro.lint.flow.project import Project
from repro.lint.flow.summaries import SummaryTable
from repro.lint.flow.symbols import ClassInfo, FunctionInfo, TypeRef
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation

_ENGINE_MODULE = "repro.sim.engine"

#: Scheduling methods and whether their first argument is a delay
#: (relative, must be >= 0) or an absolute timestamp.
_SCHEDULE_METHODS = {
    "schedule": "delay",
    "schedule_at": "absolute",
    "schedule_many": "delay",
}


class _Finding:
    __slots__ = ("node", "message")

    def __init__(self, node: ast.AST, message: str) -> None:
        self.node = node
        self.message = message


class _TimeAnalysis(FunctionAnalysis):
    """The dataflow engine, intercepting scheduling call sites."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.findings: list[_Finding] = []

    def _infer_Call(self, node: ast.Call, env: dict[str, TypeRef]) -> TypeRef:
        func = node.func
        if isinstance(func, ast.Attribute):
            mode = _SCHEDULE_METHODS.get(func.attr)
            if mode is not None and node.args:
                self._check_time_arg(node, func.attr, mode, env)
        return super()._infer_Call(node, env)

    def _check_time_arg(
        self, node: ast.Call, method: str, mode: str, env: dict[str, TypeRef]
    ) -> None:
        arg = node.args[0]
        if isinstance(arg, ast.Starred):
            return
        val = self.infer(arg, env)
        if (
            val.kind == "num"
            and val.dim is not None
            and (val.dim.data != 0 or val.dim.time not in (0, 1))
        ):
            self.findings.append(_Finding(
                node,
                f"{method}() given a {val.dim.render()} quantity as its "
                f"time argument; delays and timestamps are seconds",
            ))
            return
        literal = _negative_literal(arg)
        if literal is not None and mode == "delay":
            self.findings.append(_Finding(
                node,
                f"{method}() with negative delay {literal}; the clock "
                f"only moves forward",
            ))
            return
        if mode == "delay" and _is_unclamped_anchor_sub(arg):
            self.findings.append(_Finding(
                node,
                f"{method}() delay 'anchor - now' goes negative once the "
                f"anchor has passed; clamp with max(0.0, ...)",
            ))
        elif mode == "absolute" and _is_now_minus(arg):
            self.findings.append(_Finding(
                node,
                f"{method}() at 'now - ...' schedules in the past; "
                f"events must land at or after the current time",
            ))


def _negative_literal(node: ast.expr) -> Optional[float]:
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and not isinstance(node.operand.value, bool)
        and node.operand.value > 0
    ):
        return -float(node.operand.value)
    return None


def _is_now_attr(node: ast.expr) -> bool:
    """``sim.now`` / ``self.sim.now`` / a bare ``now`` local."""
    if isinstance(node, ast.Attribute):
        return node.attr == "now"
    return isinstance(node, ast.Name) and node.id == "now"


def _is_unclamped_anchor_sub(arg: ast.expr) -> bool:
    """``anchor - ...now`` not wrapped in ``max(...)``."""
    return (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Sub)
        and _is_now_attr(arg.right)
        and not _is_now_attr(arg.left)
    )


def _is_now_minus(arg: ast.expr) -> bool:
    """``...now - positive-something``."""
    return (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Sub)
        and _is_now_attr(arg.left)
    )


class SimTimeRule(FlowRule):
    code: ClassVar[str] = "RL011"
    title: ClassVar[str] = "simulation-time discipline"
    rationale: ClassVar[str] = (
        "events scheduled before the current simulation time execute "
        "out of causal order and shift every later golden trace; delays "
        "must be nonnegative seconds and anchor arithmetic clamped"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        summaries = project.summaries()
        for name in sorted(project.modules):
            if name == _ENGINE_MODULE:
                continue
            info = project.modules[name]
            if not _has_schedule_call(info.ctx.tree):
                continue
            jobs: list[tuple[FunctionInfo, Optional[ClassInfo]]] = [
                (fn, None) for fn in info.symbols.functions.values()
            ]
            for cls in info.symbols.classes.values():
                jobs.extend((method, cls) for method in cls.methods.values())
            for func, cls in jobs:
                analysis = _TimeAnalysis(
                    project, name, func, cls, summaries=summaries
                )
                try:
                    analysis.run()
                except RecursionError:  # pragma: no cover - pathological
                    continue
                for finding in analysis.findings:
                    out.append(info.ctx.violation(
                        finding.node,
                        self.code,
                        f"in {func.name}(): {finding.message}",
                    ))
        return out


def _has_schedule_call(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHEDULE_METHODS
        ):
            return True
    return False

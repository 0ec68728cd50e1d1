"""RL015: task lifecycle hygiene.

asyncio only keeps *weak* references to running tasks: a task created
with ``create_task`` and not retained anywhere can be garbage-collected
mid-flight, silently dropping its work and swallowing its exception --
the "fire-and-forget that actually forgot" failure. Separately, a
coroutine *called* but never awaited does nothing at all except emit a
``RuntimeWarning`` long after the fact, and a task stored on an object
that no teardown path ever cancels leaks across session shutdown until
the loop closes.

From the async graph's spawn table and ownership classification:

- a spawn whose result is **dropped** (bare expression statement) or
  **discarded** (bound to a local that is never read) is flagged at the
  spawn site; retained spawns -- awaited, passed to a tracking
  collection, stored on an attribute -- are fine;
- a spawn **stored** on an attribute is flagged when neither the
  storing class nor the attribute's owning class ever calls
  ``.cancel()`` anywhere: there is no cancellation path from shutdown,
  so the task leaks past teardown (the runtime sanitizer's task census
  is the dynamic counterpart of this check);
- a bare expression statement calling a **coroutine** is flagged: the
  coroutine object is created and immediately dropped, never scheduled.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.lint.flow.asyncgraph import AsyncGraph
from repro.lint.flow.project import Project
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation


class AsyncTaskHygieneRule(FlowRule):
    code: ClassVar[str] = "RL015"
    title: ClassVar[str] = "task lifecycle hygiene"
    rationale: ClassVar[str] = (
        "asyncio holds only weak refs to tasks: an untracked task can "
        "be collected mid-flight and its exception swallowed; a stored "
        "task with no cancellation path leaks past session teardown"
    )

    uses_async_facts: ClassVar[bool] = True

    def check_project(self, project: Project) -> list[Violation]:
        graph = project.asyncgraph()
        out: list[Violation] = []
        for spawn in graph.spawns:
            ctx = project.modules[spawn.module].ctx
            spawner = spawn.spawner.rsplit(".", 1)[-1]
            if spawn.ownership == "dropped":
                out.append(ctx.violation(
                    spawn.node, self.code,
                    f"task spawned in {spawner}() and dropped; asyncio "
                    f"keeps only a weak ref, so the task can be "
                    f"garbage-collected mid-flight -- store it and "
                    f"discard on completion",
                ))
            elif spawn.ownership == "discarded":
                out.append(ctx.violation(
                    spawn.node, self.code,
                    f"task handle assigned in {spawner}() but never "
                    f"read; retain it (and cancel it at teardown) or "
                    f"await it",
                ))
            elif spawn.ownership == "stored" and not spawn.cancelled:
                attr = spawn.stored_attr[1] if spawn.stored_attr else "?"
                out.append(ctx.violation(
                    spawn.node, self.code,
                    f"task stored on .{attr} in {spawner}() but no "
                    f"method of the owning class ever cancels it; the "
                    f"task leaks past teardown",
                ))
        out.extend(self._unawaited_coroutines(project, graph))
        return out

    def _unawaited_coroutines(
        self, project: Project, graph: AsyncGraph
    ) -> list[Violation]:
        out: list[Violation] = []
        for qualname in sorted(graph.functions):
            facts = graph.functions[qualname]
            node = graph.graph.nodes[qualname]
            ctx = project.modules[facts.module].ctx
            for stmt in ast.walk(node.func.node):
                if not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                ):
                    continue
                for call, target in facts.calls:
                    if call is not stmt.value:
                        continue
                    sub = graph.functions.get(target)
                    if sub is not None and sub.is_coroutine:
                        out.append(ctx.violation(
                            stmt, self.code,
                            f"coroutine {target.rsplit('.', 1)[-1]}() "
                            f"called but never awaited: the coroutine "
                            f"object is created and immediately "
                            f"dropped",
                        ))
        return out

"""RL010: process-safety of worker-executed code.

The experiment runner fans cache misses out to a
``ProcessPoolExecutor``; the determinism contract is that ``jobs > 1``
and ``jobs = 1`` produce byte-identical results. Two classes of bug
silently break it:

- **Unpicklable tasks.** A lambda or nested ``def`` handed to
  ``submit``/``map`` raises ``PicklingError`` at runtime -- but only on
  the parallel path, which the fast unit-test configuration never
  takes.
- **Mutable module globals written from worker-executed code.** A
  worker process mutates its *own copy* of the module global; the
  parent never sees the write. Cache registries, memo dicts, and
  counters filled in a worker evaporate when the pool joins, so the
  parallel run diverges from the serial one.

The rule finds executor/pool construction sites, takes every
module-level function passed to ``submit``/``map`` as a worker entry
point, and walks the project call graph (bounded depth) from each
entry. Any function reached whose summary records a write to a module
global -- a ``global`` rebind or an in-place mutation of a module-level
container -- is flagged at the write site.

Unlike the other flow rules, a finding here ties *two* modules
together: the submitter and the (possibly unrelated) module containing
the write.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Optional

from repro.lint.flow.project import Project
from repro.lint.rules.base import FlowRule, import_aliases, resolve_dotted
from repro.lint.violations import Violation

#: Call targets that construct a process pool.
_POOL_CTORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.get_context",
})

#: Executor methods that take a callable to run in a worker.
_SUBMIT_METHODS = frozenset({
    "submit", "map", "apply", "apply_async", "map_async", "imap",
    "imap_unordered", "starmap",
})

#: Call-graph depth walked from each worker entry point.
_REACH_DEPTH = 6


class ProcessSafetyRule(FlowRule):
    code: ClassVar[str] = "RL010"
    title: ClassVar[str] = "process safety"
    rationale: ClassVar[str] = (
        "code executed in ProcessPoolExecutor workers must pickle and "
        "must not write module globals: a worker mutates its own copy, "
        "so parallel runs silently diverge from serial ones"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        entries: list[str] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            aliases = import_aliases(info.ctx.tree)
            pools = _pool_locals(info.ctx.tree, aliases)
            if not pools:
                continue
            for node in ast.walk(info.ctx.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                    and node.args
                ):
                    continue
                task = node.args[0]
                if isinstance(task, ast.Lambda):
                    out.append(info.ctx.violation(
                        task, self.code,
                        f"lambda passed to {node.func.attr}(); lambdas "
                        f"do not pickle into worker processes",
                    ))
                    continue
                if isinstance(task, ast.Name):
                    if task.id in _nested_defs(info.ctx.tree, node):
                        out.append(info.ctx.violation(
                            task, self.code,
                            f"nested function '{task.id}' passed to "
                            f"{node.func.attr}(); closures do not pickle "
                            f"into worker processes",
                        ))
                        continue
                    entry = self._entry_qualname(project, name, task.id)
                    if entry is not None:
                        entries.append(entry)
        out.extend(self._global_write_findings(project, entries))
        return out

    def _entry_qualname(
        self, project: Project, module: str, name: str
    ) -> Optional[str]:
        info = project.modules[module]
        if name in info.symbols.functions:
            return f"{module}.{name}"
        target = info.symbols.imports.get(name)
        if target is not None:
            resolved = project.resolve_function(target)
            if resolved is not None:
                owner, fn = resolved
                return f"{owner}.{fn.name}"
        return None

    def _global_write_findings(
        self, project: Project, entries: list[str]
    ) -> list[Violation]:
        if not entries:
            return []
        graph = project.call_graph()
        summaries = project.summaries()
        reached: set[str] = set()
        for entry in entries:
            reached |= graph.reachable(entry, max_depth=_REACH_DEPTH)
        out: list[Violation] = []
        seen: set[tuple[str, int, int, str]] = set()
        for qualname in sorted(reached):
            summary = summaries.get(qualname)
            node = graph.nodes.get(qualname)
            if summary is None or node is None:
                continue
            ctx = project.modules[node.module].ctx
            for write in summary.global_writes:
                key = (
                    node.module,
                    getattr(write.node, "lineno", 0),
                    getattr(write.node, "col_offset", 0),
                    write.name,
                )
                if key in seen:
                    continue
                seen.add(key)
                verb = (
                    "rebound" if write.kind == "rebind" else "mutated"
                )
                out.append(ctx.violation(
                    write.node, self.code,
                    f"module global '{write.name}' {verb} in "
                    f"{node.func.name}(), which runs in worker "
                    f"processes; the write is lost when the pool joins",
                ))
        return out


def _pool_locals(tree: ast.Module, aliases: dict[str, str]) -> set[str]:
    """Names bound (assignment or ``with ... as``) to a process pool."""
    pools: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if not _is_pool_ctor(node.value, aliases):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    pools.add(target.id)
        elif isinstance(node, ast.With):
            for item in node.items:
                if (
                    _is_pool_ctor(item.context_expr, aliases)
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    pools.add(item.optional_vars.id)
    return pools


def _is_pool_ctor(node: ast.expr, aliases: dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    target = resolve_dotted(node.func, aliases)
    return target in _POOL_CTORS


def _nested_defs(tree: ast.Module, site: ast.AST) -> set[str]:
    """Function names defined inside the function enclosing ``site``."""
    enclosing: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is site:
                    enclosing = node  # innermost wins: keep walking
    if enclosing is None:
        return set()
    out: set[str] = set()
    for node in ast.walk(enclosing):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not enclosing
        ):
            out.add(node.name)
    return out

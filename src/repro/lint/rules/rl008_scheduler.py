"""RL008: scheduler determinism at equal timestamps.

The event core orders equal-time events by ``(priority, seq)`` -- the
heap key of ``repro.sim.engine``. A call site that schedules at a
potentially-equal timestamp (periodic ticks, zero-delay forwards,
simultaneous session starts) and *omits* the priority leans on whatever
the default happens to be; if a refactor of the key or of the default
ever reorders ties, every golden trace shifts silently. Requiring the
tiebreaker to be explicit at the call site turns that silent
reordering into a loud diff.

Every ``schedule``/``schedule_at``/``schedule_many`` call must therefore
pass ``priority`` explicitly -- unless the timestamp expression flows an
RNG draw (``rng.jittered(...)``, ``rng.uniform(...)`` or a local bound
from one), which makes an exact tie measure-zero. ``repro.sim.engine``
itself is exempt: it is the implementation, not a call site.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Optional

from repro.lint.flow.project import Project
from repro.lint.rules.base import FileContext, FlowRule
from repro.lint.violations import Violation

_ENGINE_MODULE = "repro.sim.engine"
_SCHEDULE_METHODS = {
    "schedule": (2, 3),  # (args before priority, priority position)
    "schedule_at": (2, 3),
    "schedule_many": (1, 2),
}
_RNG_DRAW_METHODS = frozenset(
    {
        "jittered",
        "uniform",
        "random",
        "expovariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "triangular",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
        "randint",
        "randrange",
        "choice",
    }
)


class SchedulerTiebreakRule(FlowRule):
    code: ClassVar[str] = "RL008"
    title: ClassVar[str] = "scheduler determinism"
    rationale: ClassVar[str] = (
        "events scheduled at potentially-equal timestamps must pass an "
        "explicit priority tiebreaker; relying on the implicit default "
        "makes golden traces hostage to the event core's tie order"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        for name in sorted(project.modules):
            if name == _ENGINE_MODULE:
                continue
            info = project.modules[name]
            tree = info.ctx.tree
            for scope in ast.walk(tree):
                if not isinstance(scope, ast.FunctionDef):
                    continue
                jittered = _rng_assigned_names(scope)
                for node in ast.walk(scope):
                    if not isinstance(node, ast.Call):
                        continue
                    violation = self._check_call(
                        info.ctx, node, jittered
                    )
                    if violation is not None:
                        out.append(violation)
        return out

    def _check_call(
        self, ctx: FileContext, node: ast.Call, jittered: set[str]
    ) -> Optional[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        spec = _SCHEDULE_METHODS.get(func.attr)
        if spec is None:
            return None
        _, priority_pos = spec
        if any(kw.arg == "priority" for kw in node.keywords):
            return None
        if len(node.args) > priority_pos - 1:
            return None  # explicit positional priority
        if node.args and _flows_rng_draw(node.args[0], jittered):
            return None  # jittered timestamp: ties are measure-zero
        return ctx.violation(
            node,
            self.code,
            f"{func.attr}() without an explicit priority tiebreaker; "
            f"pass priority=... (equal-time events otherwise depend on "
            f"the event core's default tie order)",
        )


def _rng_assigned_names(scope: ast.FunctionDef) -> set[str]:
    """Locals bound (anywhere in the function) from an RNG draw."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        elif isinstance(node, ast.NamedExpr):
            value, targets = node.value, [node.target]
        else:
            continue
        if not _is_rng_draw(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_rng_draw(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RNG_DRAW_METHODS
    )


def _flows_rng_draw(expr: ast.expr, jittered: set[str]) -> bool:
    for node in ast.walk(expr):
        if _is_rng_draw(node):
            return True
        if isinstance(node, ast.Name) and node.id in jittered:
            return True
    return False

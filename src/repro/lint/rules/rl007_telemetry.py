"""RL007: telemetry cost discipline on hot paths.

PR 3's hot-path contract: a disabled :class:`~repro.telemetry.bus.
TelemetryBus` hands producers ``event_hook() -> None``, and producers
must treat ``None`` as "don't even build the event" -- the per-packet
path stays allocation-free. An unguarded ``self.on_event(...)`` (or a
call through a variable holding ``bus.event_hook()``) either crashes
when telemetry is off or, more insidiously, rebuilds the kwargs dict per
packet and erases the benchmark win the engine refactor bought.

PR 5 widened the contract to the whole observability surface: the
metrics registry's ``counter_hook``/``gauge_hook``/``histogram_hook``
factories and the flight recorder's ``hook`` factory follow the same
protocol — ``None`` when the sink is disabled, a bound sample method
when enabled — so their results get the same enforcement. PR 10 added
the tracing recorder's ``span_hook`` factory (``SpanRecorder.span_hook
(source, context)``): span producers must bind once and None-guard, so
a run with tracing off never builds a span.

The rule tracks hook values through each function -- parameters and
attributes named ``on_event``, class attributes assigned from a hook
factory (``self._tx_hook = registry.counter_hook(...)``), and locals
bound from either -- and requires every *call* of one to be dominated
by a ``None`` guard of that same expression (``if hook is not None:``,
``if hook:``, an early ``if hook is None: return``, or an ``assert hook
is not None``). The telemetry package itself is exempt: it is the
implementation of the switch, not a producer.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Optional, Sequence

from repro.lint.flow.project import Project
from repro.lint.flow.summaries import HOOK_FACTORY_METHODS, SummaryTable
from repro.lint.flow.symbols import ModuleSymbols
from repro.lint.rules.base import FileContext, FlowRule, dotted_name
from repro.lint.violations import Violation

_EXEMPT_PREFIX = "repro.telemetry"
_HOOK_ATTR = "on_event"
#: Factory methods whose result is "None when disabled, else a bound
#: sample method": the telemetry bus, the metrics registry, and the
#: flight recorder (``recorder.hook(source)``). Canonically defined next
#: to the summary builder, which traces them through wrappers.
_HOOK_FACTORIES = HOOK_FACTORY_METHODS


def _terminates(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _is_hook_factory_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _HOOK_FACTORIES
    )


def _hook_attrs_of_class(cls: ast.ClassDef) -> FrozenSet[str]:
    """Attribute names the class binds from hook factories.

    ``self._tx_hook = registry.counter_hook(...)`` anywhere in the class
    makes ``self._tx_hook`` a hook-valued attribute in *every* method.
    """
    attrs: set[str] = set()
    for node in ast.walk(cls):
        value: Optional[ast.expr] = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value = node.value
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
            targets = [node.target]
        if value is None or not _is_hook_factory_call(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return frozenset(attrs)


class TelemetryCostRule(FlowRule):
    code: ClassVar[str] = "RL007"
    title: ClassVar[str] = "telemetry cost"
    rationale: ClassVar[str] = (
        "observability hooks (event hooks, metric hooks, recorder hooks) "
        "are None when their sink is disabled; calling one (and building "
        "its sample) outside a None-guard crashes or taxes the per-packet "
        "hot path"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        summaries = project.summaries()
        for name in sorted(project.modules):
            if name == _EXEMPT_PREFIX or name.startswith(_EXEMPT_PREFIX + "."):
                continue
            info = project.modules[name]
            # Pre-pass: which attributes hold factory-made hooks, per
            # enclosing class, so every method knows its hook attrs.
            attrs_of: dict[ast.FunctionDef, FrozenSet[str]] = {}
            for node in ast.walk(info.ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                attrs = _hook_attrs_of_class(node)
                if not attrs:
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.FunctionDef):
                        attrs_of[sub] = attrs_of.get(sub, frozenset()) | attrs
            for node in ast.walk(info.ctx.tree):
                if isinstance(node, ast.FunctionDef):
                    checker = _FunctionChecker(
                        self, info.ctx, attrs_of.get(node, frozenset()),
                        project=project, symbols=info.symbols,
                        summaries=summaries)
                    checker.check(node)
                    out.extend(checker.out)
        return out


class _FunctionChecker:
    def __init__(self, rule: TelemetryCostRule, ctx: FileContext,
                 hook_attrs: FrozenSet[str] = frozenset(),
                 project: Optional[Project] = None,
                 symbols: Optional[ModuleSymbols] = None,
                 summaries: Optional[SummaryTable] = None) -> None:
        self.rule = rule
        self.ctx = ctx
        self.project = project
        self.symbols = symbols
        self.summaries = summaries
        self.out: list[Violation] = []
        self.hook_names: set[str] = set()
        self.hook_attrs = hook_attrs

    def check(self, func: ast.FunctionDef) -> None:
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg == _HOOK_ATTR:
                self.hook_names.add(arg.arg)
        self._collect_hook_locals(func)
        self._walk(func.body, frozenset())

    def _collect_hook_locals(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    continue
            value: Optional[ast.expr] = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value = node.value
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets = [node.target]
            elif isinstance(node, ast.NamedExpr):
                value = node.value
                targets = [node.target]
            if value is None or not self._is_hook_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.hook_names.add(target.id)

    def _is_hook_value(self, node: ast.expr) -> bool:
        """Does this expression produce a maybe-None hook?

        Either a factory call (``registry.counter_hook(...)``) or a load
        of a known hook attribute (``hook = self._tx_hook`` — the
        "locals from attrs" pattern the Link hot path uses).
        """
        if _is_hook_factory_call(node):
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr == _HOOK_ATTR or node.attr in self.hook_attrs
        ):
            return True
        # Wrapper factory: a project function whose summary says it
        # returns a maybe-None hook (directly or through further calls).
        if isinstance(node, ast.Call) and self.summaries is not None:
            qualname = self._call_qualname(node)
            if qualname is not None and self.summaries.returns_hook(qualname):
                return True
        return False

    def _call_qualname(self, node: ast.Call) -> Optional[str]:
        """Summary key of a called project function, for Name calls."""
        func = node.func
        if not isinstance(func, ast.Name) or self.symbols is None:
            return None
        if func.id in self.symbols.functions:
            return f"{self.symbols.name}.{func.id}"
        target = self.symbols.imports.get(func.id)
        if target is not None and self.project is not None:
            resolved = self.project.resolve_function(target)
            if resolved is not None:
                module, fn = resolved
                return f"{module}.{fn.name}"
        return None

    def _hook_key(self, node: ast.expr) -> Optional[str]:
        """Canonical key if ``node`` is a hook-valued expression."""
        if isinstance(node, ast.Name) and node.id in self.hook_names:
            return node.id
        if isinstance(node, ast.Attribute) and (
            node.attr == _HOOK_ATTR or node.attr in self.hook_attrs
        ):
            return dotted_name(node)
        return None

    # ------------------------------------------------------------ walking

    def _walk(
        self, stmts: Sequence[ast.stmt], guarded: frozenset[str]
    ) -> None:
        extra: frozenset[str] = frozenset()
        for stmt in stmts:
            active = guarded | extra
            if isinstance(stmt, ast.If):
                key, positive = self._guard_from_test(stmt.test)
                self._scan(stmt.test, active)
                body_guard = active | {key} if key and positive else active
                else_guard = active | {key} if key and not positive else active
                self._walk(stmt.body, body_guard)
                self._walk(stmt.orelse, else_guard)
                # ``if hook is None: return`` guards the rest of the block.
                if (
                    key
                    and not positive
                    and stmt.body
                    and _terminates(stmt.body[-1])
                    and not stmt.orelse
                ):
                    extra = extra | {key}
                continue
            if isinstance(stmt, ast.Assert):
                key, positive = self._guard_from_test(stmt.test)
                if key and positive:
                    extra = extra | {key}
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan(stmt.iter, active)
                self._walk(stmt.body, active)
                self._walk(stmt.orelse, active)
                continue
            if isinstance(stmt, ast.While):
                self._scan(stmt.test, active)
                self._walk(stmt.body, active)
                self._walk(stmt.orelse, active)
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._scan(item.context_expr, active)
                self._walk(stmt.body, active)
                continue
            if isinstance(stmt, ast.Try):
                self._walk(stmt.body, active)
                for handler in stmt.handlers:
                    self._walk(handler.body, active)
                self._walk(stmt.orelse, active)
                self._walk(stmt.finalbody, active)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan(child, active)

    def _guard_from_test(
        self, test: ast.expr
    ) -> tuple[Optional[str], bool]:
        """(hook key, guard-is-positive) for a recognized None test."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                key, positive = self._guard_from_test(value)
                if key is not None and positive:
                    return key, True
            return None, True
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op = test.left, test.ops[0]
            right = test.comparators[0]
            if isinstance(right, ast.Constant) and right.value is None:
                if isinstance(left, ast.NamedExpr):
                    if isinstance(left.target, ast.Name):
                        self.hook_names.add(left.target.id)
                    left = left.target
                key = self._hook_key(left)
                if key is not None:
                    if isinstance(op, ast.IsNot):
                        return key, True
                    if isinstance(op, ast.Is):
                        return key, False
            return None, True
        key = self._hook_key(test)
        if key is not None:
            return key, True
        return None, True

    def _scan(self, expr: ast.expr, guarded: frozenset[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.IfExp):
                # handled coarsely: guards inside ternaries not tracked
                continue
            if not isinstance(node, ast.Call):
                continue
            if _is_hook_factory_call(node.func):
                factory = node.func.func.attr  # type: ignore[attr-defined]
                self.out.append(
                    self.ctx.violation(
                        node,
                        self.rule.code,
                        f"{factory}() result called without a None-guard; "
                        "bind it and guard before building the sample",
                    )
                )
                continue
            key = self._hook_key(node.func)
            if key is not None and key not in guarded:
                self.out.append(
                    self.ctx.violation(
                        node,
                        self.rule.code,
                        f"hook '{key}' called outside an "
                        f"'if {key} is not None' guard; a disabled "
                        f"sink hands producers None",
                    )
                )

"""RL005: seed-flow tracking for SeededRNG objects.

Bit-for-bit reproducibility rests on a discipline the type system cannot
see: every stochastic component must draw from its *own* labelled
substream (``rng.spawn(label)`` / ``make_rng(seed)`` /
``SeededRNG(derive_seed(...))``), so that adding, removing, or reordering
one flow never shifts another flow's draw sequence. Two components
sharing one ``SeededRNG`` object interleave their draws -- golden traces
then depend on event interleaving, the exact failure PR 1 eliminated.

This rule proves, per function, that every RNG reaching a stochastic
constructor (any call argument bound to a parameter named ``rng``):

- originates from a sanctioned source -- a ``spawn``/``make_rng`` call,
  ``SeededRNG(derive_seed(...))``, or a ``SeededRNG``-annotated
  parameter (already proven at its own construction site); and
- feeds exactly one consumer: the same variable consumed twice (directly
  or through an alias), consumed again in a later loop iteration, or a
  shared ``self.rng`` attribute passed on directly, is an aliasing
  violation.

``repro.sim.rng`` itself is exempt: it is the sanctioned factory.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Optional, Sequence

from repro.lint.flow.project import Project
from repro.lint.flow.summaries import (
    RNG_CLASS as RNG_CLASS,
    RNG_MODULE as RNG_MODULE,
    SummaryTable,
)
from repro.lint.flow.symbols import ClassInfo, FunctionInfo, ModuleSymbols, Param
from repro.lint.rules.base import FileContext, FlowRule
from repro.lint.violations import Violation


class _RngState:
    __slots__ = ("origin", "bind_mult", "count")

    def __init__(self, origin: str, bind_mult: int) -> None:
        self.origin = origin
        self.bind_mult = bind_mult
        self.count = 0


class SeedFlowRule(FlowRule):
    code: ClassVar[str] = "RL005"
    title: ClassVar[str] = "seed flow"
    rationale: ClassVar[str] = (
        "every SeededRNG reaching a stochastic constructor must originate "
        "from spawn()/derive_seed() and feed exactly one consumer; shared "
        "streams interleave draws and break per-flow reproducibility"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        summaries = project.summaries()
        for name in sorted(project.modules):
            if name == RNG_MODULE or not _imports_rng(project, name):
                continue
            info = project.modules[name]
            checker = _ModuleChecker(
                self, project, info.symbols, info.ctx, summaries
            )
            out.extend(checker.run())
        return out


def _imports_rng(project: Project, module: str) -> bool:
    for target in project.modules[module].symbols.imports.values():
        if target == RNG_MODULE or target.startswith(RNG_MODULE + "."):
            return True
    return False


class _ModuleChecker:
    def __init__(
        self,
        rule: SeedFlowRule,
        project: Project,
        symbols: ModuleSymbols,
        ctx: FileContext,
        summaries: SummaryTable,
    ) -> None:
        self.rule = rule
        self.project = project
        self.symbols = symbols
        self.ctx = ctx
        self.summaries = summaries
        self.out: list[Violation] = []

    def run(self) -> list[Violation]:
        for func in self.symbols.functions.values():
            self._check_function(func, None)
        for cls in self.symbols.classes.values():
            for method in cls.methods.values():
                self._check_function(method, cls)
        return self.out

    # -------------------------------------------------------- resolution

    def _dotted_target(self, func: ast.expr) -> Optional[str]:
        """Canonical dotted target of a call's function expression."""
        if isinstance(func, ast.Name):
            target = self.symbols.imports.get(func.id)
            if target is not None:
                return target
            if func.id in self.symbols.functions:
                return f"{self.symbols.name}.{func.id}"
            if func.id in self.symbols.classes:
                return f"{self.symbols.name}.{func.id}"
            return None
        if isinstance(func, ast.Attribute):
            parts: list[str] = [func.attr]
            current: ast.expr = func.value
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if not isinstance(current, ast.Name):
                return None
            head = self.symbols.imports.get(current.id)
            if head is None:
                return None
            parts.append(head)
            return ".".join(reversed(parts))
        return None

    def _is_rng_annotation(self, ann: Optional[ast.expr]) -> bool:
        if ann is None:
            return False
        ref = self.project.resolve_annotation(self.symbols.name, ann)
        if ref.kind == "cls" and ref.qualname == RNG_CLASS:
            return True
        # Fixture fallback: the rng module itself is not always part of
        # the linted set; match the import target syntactically.
        if isinstance(ann, ast.Name):
            return self.symbols.imports.get(ann.id) == RNG_CLASS
        return False

    def _returns_rng(self, target: str) -> bool:
        resolved = self.project.resolve_function(target)
        if resolved is None:
            return False
        module, fn = resolved
        ref = self.project.resolve_annotation(module, fn.returns)
        if ref.kind == "cls" and ref.qualname == RNG_CLASS:
            return True
        returns = fn.returns
        if isinstance(returns, ast.Name):
            owner = self.project.modules.get(module)
            if owner is not None:
                if owner.symbols.imports.get(returns.id) == RNG_CLASS:
                    return True
        # Unannotated wrapper: the summary table traced its return
        # provenance through the call graph.
        return self.summaries.rng_origin(f"{module}.{fn.name}") == "sanctioned"

    def _classify(self, call: ast.Call, cls: Optional[ClassInfo]) -> Optional[str]:
        """'sanctioned' / 'raw' for an RNG-producing call, else None."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "spawn":
            return "sanctioned"
        target = self._dotted_target(func)
        if target is None:
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and cls is not None
            ):
                found = self.project.find_method(cls, func.attr)
                if found is not None:
                    owner, method = found
                    ref = self.project.resolve_annotation(
                        owner.module, method.returns
                    )
                    if ref.kind == "cls" and ref.qualname == RNG_CLASS:
                        return "sanctioned"
                    return self.summaries.rng_origin(
                        f"{owner.qualname}.{method.name}"
                    )
            return None
        if target == f"{RNG_MODULE}.make_rng":
            return "sanctioned"
        if target in ("random.Random", "random.SystemRandom"):
            return "raw"
        if target == RNG_CLASS:
            if call.args and isinstance(call.args[0], ast.Call):
                seed_target = self._dotted_target(call.args[0].func)
                seed_name = (
                    call.args[0].func.id
                    if isinstance(call.args[0].func, ast.Name)
                    else None
                )
                if (
                    seed_target == f"{RNG_MODULE}.derive_seed"
                    or seed_name == "derive_seed"
                ):
                    return "sanctioned"
            return "raw"
        if self._returns_rng(target):
            return "sanctioned"
        resolved = self.project.resolve_function(target)
        if resolved is not None:
            module, fn = resolved
            return self.summaries.rng_origin(f"{module}.{fn.name}")
        return None

    def _callee_qualname(
        self, call: ast.Call, cls: Optional[ClassInfo]
    ) -> Optional[str]:
        """Summary-table key of the called project function, if known."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and cls is not None
        ):
            found = self.project.find_method(cls, func.attr)
            if found is not None:
                owner, method = found
                return f"{owner.qualname}.{method.name}"
            return None
        target = self._dotted_target(func)
        if target is None:
            return None
        resolved = self.project.resolve_function(target)
        if resolved is not None:
            module, fn = resolved
            return f"{module}.{fn.name}"
        info = self.project.resolve_class(target)
        if info is not None:
            found = self.project.find_method(info, "__init__")
            if found is not None:
                owner, _ = found
                return f"{owner.qualname}.__init__"
        return None

    def _callee_params(
        self, call: ast.Call, cls: Optional[ClassInfo]
    ) -> Optional[Sequence[Param]]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and cls is not None
        ):
            found = self.project.find_method(cls, func.attr)
            if found is None:
                return None
            _, method = found
            return (
                method.params
                if method.is_staticmethod
                else method.params[1:]
            )
        target = self._dotted_target(func)
        if target is None:
            return None
        resolved = self.project.resolve_function(target)
        if resolved is not None:
            return resolved[1].params
        info = self.project.resolve_class(target)
        if info is not None:
            found = self.project.find_method(info, "__init__")
            if found is not None:
                return found[1].params[1:]
            if info.is_dataclass:
                return [
                    Param(field, info.body_fields[field])
                    for field in info.field_order
                ]
        return None

    # ----------------------------------------------------------- checking

    def _check_function(
        self, func: FunctionInfo, cls: Optional[ClassInfo]
    ) -> None:
        env: dict[str, _RngState] = {}
        registry: list[_RngState] = []
        params = func.params
        if cls is not None and not func.is_staticmethod and params:
            params = params[1:]
        for param in params:
            if self._is_rng_annotation(param.annotation):
                state = _RngState("sanctioned", 1)
                env[param.name] = state
                registry.append(state)
        self._walk(func.node.body, env, registry, 1, cls)

    def _walk(
        self,
        stmts: Sequence[ast.stmt],
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if value is not None:
                    self._scan_calls(value, env, registry, mult, cls)
                    state = self._value_state(value, env, registry, mult, cls)
                    if state is not None:
                        for target in targets:
                            if isinstance(target, ast.Name):
                                env[target.id] = state
                        continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        env.pop(target.id, None)
            elif isinstance(stmt, ast.If):
                self._scan_calls(stmt.test, env, registry, mult, cls)
                self._walk_branches(
                    [stmt.body, stmt.orelse], env, registry, mult, cls
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_calls(stmt.iter, env, registry, mult, cls)
                body_env = dict(env)
                self._walk(stmt.body, body_env, registry, mult * 2, cls)
                env.update(body_env)
                self._walk(stmt.orelse, env, registry, mult, cls)
            elif isinstance(stmt, ast.While):
                self._scan_calls(stmt.test, env, registry, mult, cls)
                body_env = dict(env)
                self._walk(stmt.body, body_env, registry, mult * 2, cls)
                env.update(body_env)
                self._walk(stmt.orelse, env, registry, mult, cls)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._scan_calls(item.context_expr, env, registry, mult, cls)
                self._walk(stmt.body, env, registry, mult, cls)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, env, registry, mult, cls)
                for handler in stmt.handlers:
                    self._walk(handler.body, dict(env), registry, mult, cls)
                self._walk(stmt.orelse, env, registry, mult, cls)
                self._walk(stmt.finalbody, env, registry, mult, cls)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._scan_calls(child, env, registry, mult, cls)

    def _walk_branches(
        self,
        blocks: Sequence[Sequence[ast.stmt]],
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> None:
        """Branch counts do not add up: take the per-state maximum.

        A branch that terminates (``if ...: return use(rng)``) never
        rejoins the fall-through path, so its consumption and bindings
        are excluded from the post-If state -- sequential dispatch
        chains (``if isinstance(...): return ...`` per spec kind) each
        consume once on *their* path, not cumulatively.
        """
        base = {id(state): state.count for state in registry}
        maxima: dict[int, int] = dict(base)
        merged_bindings: dict[str, _RngState] = {}
        for block in blocks:
            branch_env = dict(env)
            self._walk(block, branch_env, registry, mult, cls)
            rejoins = not _block_terminates(block)
            for state in registry:
                key = id(state)
                if rejoins:
                    maxima[key] = max(maxima.get(key, 0), state.count)
                state.count = base.get(key, 0)
            if rejoins:
                merged_bindings.update(branch_env)
        for state in registry:
            state.count = maxima.get(id(state), state.count)
        env.update(merged_bindings)

    def _value_state(
        self,
        value: ast.expr,
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> Optional[_RngState]:
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if isinstance(value, ast.Call):
            origin = self._classify(value, cls)
            if origin is not None:
                state = _RngState(origin, mult)
                registry.append(state)
                return state
        return None

    def _scan_calls(
        self,
        expr: ast.expr,
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._check_sink(node, env, registry, mult, cls)

    def _check_sink(
        self,
        call: ast.Call,
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> None:
        rng_args: list[ast.expr] = [
            kw.value for kw in call.keywords if kw.arg == "rng"
        ]
        if call.args:
            params = self._callee_params(call, cls)
            if params is not None:
                for param, arg in zip(params, call.args):
                    if param.name == "rng" and not isinstance(
                        arg, ast.Starred
                    ):
                        rng_args.append(arg)
        for arg in rng_args:
            self._consume(call, arg, env, registry, mult, cls)

    def _consume(
        self,
        call: ast.Call,
        arg: ast.expr,
        env: dict[str, _RngState],
        registry: list[_RngState],
        mult: int,
        cls: Optional[ClassInfo],
    ) -> None:
        callee = _describe_callee(call)
        if isinstance(arg, ast.Name):
            state = env.get(arg.id)
            if state is None:
                return
            # Escape analysis: one pass to a fanning-out helper stands
            # for as many consumers as the helper feeds (weight >= 1).
            weight = self.summaries.rng_weight(
                self._callee_qualname(call, cls), "rng"
            )
            state.count += max(1, mult // state.bind_mult) * weight
            if state.count > 1:
                self.out.append(
                    self.ctx.violation(
                        call,
                        self.rule.code,
                        f"RNG '{arg.id}' feeds more than one stochastic "
                        f"consumer (here: {callee}); spawn a separate "
                        f"substream per flow",
                    )
                )
            elif state.origin == "raw":
                self.out.append(
                    self.ctx.violation(
                        call,
                        self.rule.code,
                        f"RNG '{arg.id}' passed to {callee} does not "
                        f"originate from spawn()/make_rng()/derive_seed()",
                    )
                )
            return
        if isinstance(arg, ast.Call):
            if self._classify(arg, cls) == "raw":
                self.out.append(
                    self.ctx.violation(
                        call,
                        self.rule.code,
                        f"RNG passed to {callee} is constructed from a raw "
                        f"seed; use spawn()/make_rng()/derive_seed()",
                    )
                )
            return
        if isinstance(arg, ast.Attribute):
            self.out.append(
                self.ctx.violation(
                    call,
                    self.rule.code,
                    f"shared RNG attribute '{arg.attr}' passed directly to "
                    f"{callee}; spawn a per-consumer substream",
                )
            )


def _block_terminates(block: Sequence[ast.stmt]) -> bool:
    return bool(block) and isinstance(
        block[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _describe_callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return "<call>"

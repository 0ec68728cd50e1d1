"""RL016: SessionCore/SessionTransport typestate.

The transport-agnostic session core has an implicit protocol automaton:
a session *starts* (core constructed, transport bound), *streams*
(driver calls ``pick_payload``/``on_ack``/``on_loss``/``on_backoff``/
``tick`` interleaved with live ``rate``/``slope`` reads), and *ends*
(FIN handling tears the session down). Two classes of bug violate the
automaton without failing any unit test:

- **Driver calls or transport reads after teardown.** Once a session's
  ``finish()``/``close()`` has run, the pacer stops being fed: a
  ``rate``/``slope`` read observes a frozen controller and a driver
  call mutates adapter state nobody will ship. The FIN summary must be
  built *before* teardown, not after.
- **Replaying a tape that was never recorded.** ``SessionCore.replay``
  re-drives a fresh core from a :class:`~repro.server.core.SessionTape`;
  handing it a tape that no recording core ever filled replays zero
  events and silently "passes".

The check is a per-function *must* analysis in source order: a teardown
call (``X.finish()``, ``X.close()``, ...) kills the receiver name on
the paths that executed it (both branches of an ``if`` must tear down
for the state to persist past it), and any later statement in the body
that (a) calls a driver method rooted at the dead name, (b) reads
``rate``/``slope`` rooted at it, or (c) passes an expression rooted at
it into a function that transitively reads a transport (propagated
through annotated parameters to a bounded fixed point -- the same
summary style as the PR 7 machinery) is flagged. Interprocedural
transport reads mean ``session_summary(session.core, session.pacer)``
after ``session.finish()`` is caught even though the reads happen two
calls away.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Optional

from repro.lint.flow.asyncgraph import ReceiverTyper
from repro.lint.flow.callgraph import CallResolver, FunctionNode, iter_functions
from repro.lint.flow.project import Project
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation

#: Method names that end a session's streaming lifetime.
_TEARDOWN_METHODS = frozenset(
    {"finish", "close", "stop", "shutdown", "teardown", "aclose"}
)

#: SessionCore's transport-facing driver surface.
_DRIVER_METHODS = frozenset(
    {"pick_payload", "on_ack", "on_loss", "on_backoff", "tick"}
)

#: The live transport reads the adapter makes between feedback events.
_TRANSPORT_PROPS = frozenset({"rate", "slope"})

#: Fixed-point passes propagating "reads a transport" through calls.
_SUMMARY_PASSES = 3


class SessionTypestateRule(FlowRule):
    code: ClassVar[str] = "RL016"
    title: ClassVar[str] = "session typestate"
    rationale: ClassVar[str] = (
        "after teardown the pacer is no longer fed: rate/slope reads "
        "observe a frozen controller and driver calls mutate state "
        "nobody ships -- build the FIN summary before finish(), and "
        "never replay a tape no recording core filled"
    )

    def check_project(self, project: Project) -> list[Violation]:
        readers = _transport_readers(project)
        out: list[Violation] = []
        for node in iter_functions(project):
            ctx = project.modules[node.module].ctx
            scan = _FunctionScan(project, node, readers)
            for violation_node, message in scan.findings():
                out.append(ctx.violation(violation_node, self.code, message))
        return out


def _transport_classes(project: Project) -> set[str]:
    """Qualnames of classes exposing both ``rate`` and ``slope``."""
    out: set[str] = set()
    for name in project.modules:
        for cls in project.modules[name].symbols.classes.values():
            props = {
                m.name
                for m in cls.methods.values()
                if m.is_property or _is_protocol_member(m.node)
            }
            if _TRANSPORT_PROPS <= props:
                out.add(cls.qualname)
    return out


def _is_protocol_member(node: ast.AST) -> bool:
    """Protocol bodies declare properties too; accept ellipsis bodies."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "property"
        for d in node.decorator_list
    )


def _transport_readers(project: Project) -> set[str]:
    """Functions that (transitively) read a transport's rate/slope.

    Pass 0 marks direct readers: a ``p.rate``/``p.slope`` load where
    ``p`` types to a transport class. Later passes mark callers that
    forward a typed argument into a known reader, to a bounded fixed
    point -- enough for the summary-through-helper chains the service
    actually has.
    """
    transports = _transport_classes(project)
    readers: set[str] = set()
    nodes = list(iter_functions(project))
    typers = {n.qualname: ReceiverTyper(project, n) for n in nodes}
    for node in nodes:
        typer = typers[node.qualname]
        for sub in ast.walk(node.func.node):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in _TRANSPORT_PROPS
                and isinstance(sub.ctx, ast.Load)
            ):
                owner = typer.class_of(sub.value)
                if owner is not None and owner.qualname in transports:
                    readers.add(node.qualname)
                    break
    for _ in range(_SUMMARY_PASSES):
        changed = False
        for node in nodes:
            if node.qualname in readers:
                continue
            resolver = CallResolver(project, node)
            for sub in ast.walk(node.func.node):
                if not isinstance(sub, ast.Call):
                    continue
                target = resolver.resolve(sub)
                if target in readers and (sub.args or sub.keywords):
                    readers.add(node.qualname)
                    changed = True
                    break
        if not changed:
            break
    return readers


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute chain (``x`` for ``x.a.b``)."""
    current = expr
    while isinstance(current, ast.Attribute):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


class _FunctionScan:
    """Source-order must-analysis of one function body."""

    def __init__(
        self,
        project: Project,
        node: FunctionNode,
        readers: set[str],
    ) -> None:
        self.project = project
        self.node = node
        self.readers = readers
        self.resolver = CallResolver(project, node)
        self._out: list[tuple[ast.AST, str]] = []
        self._fresh_tapes: set[str] = set()

    def findings(self) -> list[tuple[ast.AST, str]]:
        self._collect_fresh_tapes()
        self._scan_block(self.node.func.node.body, set())
        return self._out

    # ---------------------------------------------------- teardown scan

    def _scan_block(self, body: list[ast.stmt], dead: set[str]) -> set[str]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.If):
                self._check_uses(stmt.test, dead)
                then_dead = self._scan_block(stmt.body, set(dead))
                else_dead = self._scan_block(stmt.orelse, set(dead))
                if _block_exits(stmt.body):
                    dead = else_dead
                elif _block_exits(stmt.orelse):
                    dead = then_dead
                else:
                    dead = then_dead & else_dead
                continue
            if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                # May-execute bodies: a teardown inside does not kill
                # the name for code after the loop (zero iterations are
                # possible), but uses inside still see prior deaths.
                header = (
                    stmt.test if isinstance(stmt, ast.While) else stmt.iter
                )
                self._check_uses(header, dead)
                self._scan_block(stmt.body, set(dead))
                self._scan_block(stmt.orelse, set(dead))
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._check_uses(item.context_expr, dead)
                dead = self._scan_block(stmt.body, dead)
                continue
            if isinstance(stmt, ast.Try):
                dead = self._scan_block(stmt.body, dead)
                for handler in stmt.handlers:
                    self._scan_block(handler.body, set(dead))
                dead = self._scan_block(stmt.orelse, dead)
                dead = self._scan_block(stmt.finalbody, dead)
                continue
            self._check_uses(stmt, dead)
            for name in self._teardowns_in(stmt):
                dead.add(name)
            self._track_rebinds(stmt, dead)
        return dead

    def _teardowns_in(self, stmt: ast.stmt) -> list[str]:
        out: list[str] = []
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _TEARDOWN_METHODS
                and not sub.args
                and not sub.keywords
            ):
                root = _root_name(sub.func.value)
                if root is not None:
                    out.append(root)
        return out

    def _track_rebinds(self, stmt: ast.stmt, dead: set[str]) -> None:
        """Re-assigning a name resurrects it (a fresh session object)."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    dead.discard(target.id)

    def _check_uses(self, stmt: ast.AST, dead: set[str]) -> None:
        if not dead:
            return
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                self._check_call(sub, dead)
            elif (
                isinstance(sub, ast.Attribute)
                and sub.attr in _TRANSPORT_PROPS
                and isinstance(sub.ctx, ast.Load)
            ):
                root = _root_name(sub.value)
                if root in dead:
                    self._out.append((
                        sub,
                        f"transport .{sub.attr} read on '{root}' after "
                        f"its teardown; the controller is frozen -- "
                        f"read before finish()/close()",
                    ))

    def _check_call(self, call: ast.Call, dead: set[str]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            root = _root_name(func.value)
            if root in dead and func.attr in _DRIVER_METHODS:
                self._out.append((
                    call,
                    f"driver call .{func.attr}() on '{root}' after its "
                    f"teardown; the session automaton has already "
                    f"ended",
                ))
                return
        target = self.resolver.resolve(call)
        if target in self.readers:
            for arg in [*call.args, *[kw.value for kw in call.keywords]]:
                root = _root_name(arg)
                if root in dead:
                    callee = target.rsplit(".", 1)[-1] if target else "?"
                    self._out.append((
                        call,
                        f"'{root}' passed to {callee}() after its "
                        f"teardown, and {callee}() reads the transport "
                        f"rate/slope; build the summary before "
                        f"finish()",
                    ))
                    return

    # -------------------------------------------------------- tape scan

    def _collect_fresh_tapes(self) -> None:
        """Locals holding a ``SessionTape()`` used only by ``replay``."""
        func = self.node.func.node
        candidates: dict[str, ast.Call] = {}
        for stmt in ast.walk(func):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            ref = self.project.resolve_annotation(
                self.node.module, stmt.value.func
            )
            if ref.kind == "cls" and ref.qualname.endswith(".SessionTape"):
                candidates[stmt.targets[0].id] = stmt.value
        if not candidates:
            return
        replay_args: set[str] = set()
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "replay"
                and sub.args
                and isinstance(sub.args[0], ast.Name)
                and sub.args[0].id in candidates
            ):
                replay_args.add(sub.args[0].id)
        unrecorded: set[str] = set()
        for name in candidates:
            uses = 0
            for sub in ast.walk(func):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id == name
                    and isinstance(sub.ctx, ast.Load)
                ):
                    uses += 1
            # One load = the replay argument itself; more = the tape
            # was handed to a recorder or inspected, so it may be real.
            if name in replay_args and uses <= 1:
                unrecorded.add(name)
        for name in sorted(unrecorded):
            self._out.append((
                candidates[name],
                f"SessionTape '{name}' is replayed but never recorded "
                f"into: no core ever filled it, so the replay re-drives "
                f"zero events and vacuously passes",
            ))


def _block_exits(body: list[ast.stmt]) -> bool:
    """Does the block unconditionally leave the function?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )

"""RL001: simulation code must be bit-for-bit deterministic.

The golden-trace regression harness and the experiment runner's run
deduplication both assume that an experiment is a pure function of
(source, config, seed). Any ambient randomness or wall-clock read
under ``sim/``, ``core/``, ``transport/``, ``media/``, ``scenario/`` or
``telemetry/`` silently breaks that contract, so this rule bans it at rest:

- stdlib ``random`` in any form -- module-state calls *and*
  ``random.Random(...)`` construction (the ``queues.py`` fallback bug:
  a constant-seed RNG shared by every parallel run). Stochastic
  components must take a seeded stream from :mod:`repro.sim.rng`.
- ``numpy.random`` module state (legacy global generator).
- wall-clock reads: ``time.time``/``perf_counter``/``monotonic`` (and
  their ``_ns`` variants), ``datetime.now``/``utcnow``/``today``.
- OS entropy: ``os.urandom``, ``secrets``, ``uuid.uuid1``/``uuid4``.
- ``PYTHONHASHSEED``-sensitive iteration: a ``set`` used as the iterable
  of a loop or comprehension, or materialized via ``list``/``tuple``/
  ``enumerate``/``iter``, leaks hash-seed-dependent ordering into
  output. Wrap the set in ``sorted(...)`` instead.
- ``asyncio`` in any form, plus the ``loop.time()`` idiom: event-loop
  timers are wall-clock by construction, so scheduling belongs to the
  simulator (``sim.schedule``), never to asyncio.

The ``service`` zone (:mod:`repro.service`, the real-socket streaming
server) is the one place wall-clock time and asyncio timers are
legitimate — that is what the package is *for* — so those two checks
are skipped there. Randomness, OS entropy and set-order hazards remain
banned: a load fleet's loss pattern must still replay from its seed.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import FileContext, Rule, import_aliases, resolve_dotted
from repro.lint.violations import Violation

#: Directories whose code the rule polices in full.
ZONES = ("sim", "core", "transport", "media", "scenario", "telemetry")
#: The asyncio service zone: wall-clock and asyncio are legitimate
#: there, but randomness/entropy/set-order hazards still apply.
SERVICE_ZONES = ("service",)

#: Event-loop receiver names whose ``.time()`` is a wall-clock read.
_LOOP_NAMES = frozenset({"loop", "_loop", "event_loop", "_event_loop"})

_WALL_CLOCK = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
#: Entropy hazards, banned in every zone (service included).
_BANNED_EXACT = {
    "os.urandom": "os.urandom() is OS entropy; derive bytes from a seeded "
    "repro.sim.rng stream",
    "uuid.uuid1": "uuid.uuid1() is time/host dependent; use a seed-derived "
    "identifier",
    "uuid.uuid4": "uuid.uuid4() is OS entropy; use a seed-derived identifier",
}
#: Wall-clock hazards, banned outside the service zone only.
_WALL_CLOCK_EXACT = {
    "datetime.datetime.now": "wall-clock read; simulation time comes from "
    "the event loop (sim.now)",
    "datetime.datetime.utcnow": "wall-clock read; simulation time comes "
    "from the event loop (sim.now)",
    "datetime.date.today": "wall-clock read; simulation time comes from "
    "the event loop (sim.now)",
}
_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule(Rule):
    code = "RL001"
    title = "determinism"
    rationale = (
        "Experiments must be pure functions of (source, config, seed); "
        "ambient randomness, wall-clock reads and hash-seed-dependent "
        "set ordering break golden traces and poison the result cache."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dirs(ZONES + SERVICE_ZONES)

    def check(self, ctx: FileContext) -> list[Violation]:
        aliases = import_aliases(ctx.tree)
        # The service zone keeps its wall clock and asyncio timers;
        # every other zone must stay on simulation time.
        clocked = not ctx.in_dirs(SERVICE_ZONES)
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                self._check_import(ctx, node, clocked, out)
            elif isinstance(node, ast.ImportFrom):
                self._check_import_from(ctx, node, clocked, out)
            elif isinstance(node, ast.Attribute):
                self._check_dotted_use(ctx, node, aliases, clocked, out)
            elif isinstance(node, ast.For):
                self._check_set_iteration(ctx, node.iter, out)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    self._check_set_iteration(ctx, generator.iter, out)
            elif isinstance(node, ast.Call):
                self._check_order_sink(ctx, node, out)
                if clocked:
                    self._check_loop_time(ctx, node, out)
        return out

    # ------------------------------------------------------------- imports

    def _check_import(
        self, ctx: FileContext, node: ast.Import, clocked: bool, out: list[Violation]
    ) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root == "asyncio":
                if clocked:
                    out.append(
                        ctx.violation(
                            node,
                            self.code,
                            "asyncio timers are wall-clock; simulation "
                            "code schedules on the event loop "
                            "(sim.schedule) — asyncio belongs in "
                            "repro.service",
                        )
                    )
            elif root == "random":
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "stdlib random is banned in simulation code; take "
                        "a seeded stream from repro.sim.rng",
                    )
                )
            elif alias.name == "numpy.random" or alias.name.startswith(
                "numpy.random."
            ):
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "numpy.random module state is unseeded global "
                        "state; use a seeded repro.sim.rng stream",
                    )
                )
            elif root == "secrets":
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "secrets draws OS entropy; simulation randomness "
                        "must come from repro.sim.rng",
                    )
                )

    def _check_import_from(
        self,
        ctx: FileContext,
        node: ast.ImportFrom,
        clocked: bool,
        out: list[Violation],
    ) -> None:
        module = node.module or ""
        if node.level:
            return
        for alias in node.names:
            if module == "asyncio" or module.startswith("asyncio."):
                if clocked:
                    out.append(
                        ctx.violation(
                            node,
                            self.code,
                            "asyncio timers are wall-clock; simulation "
                            "code schedules on the event loop "
                            "(sim.schedule) — asyncio belongs in "
                            "repro.service",
                        )
                    )
            elif module == "random" or module.startswith("random."):
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "stdlib random is banned in simulation code; take "
                        "a seeded stream from repro.sim.rng",
                    )
                )
            elif (module == "numpy" and alias.name == "random") or (
                module.startswith("numpy.random")
            ):
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "numpy.random module state is unseeded global "
                        "state; use a seeded repro.sim.rng stream",
                    )
                )
            elif module == "secrets":
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        "secrets draws OS entropy; simulation randomness "
                        "must come from repro.sim.rng",
                    )
                )
            elif module == "time" and alias.name in _WALL_CLOCK:
                if clocked:
                    out.append(
                        ctx.violation(
                            node,
                            self.code,
                            f"time.{alias.name} is a wall-clock read; "
                            "simulation time comes from the event loop "
                            "(sim.now)",
                        )
                    )
            elif module == "os" and alias.name == "urandom":
                out.append(
                    ctx.violation(node, self.code, _BANNED_EXACT["os.urandom"])
                )
            elif module == "uuid" and alias.name in ("uuid1", "uuid4"):
                out.append(
                    ctx.violation(
                        node, self.code, _BANNED_EXACT[f"uuid.{alias.name}"]
                    )
                )

    # --------------------------------------------------------- dotted uses

    def _check_dotted_use(
        self,
        ctx: FileContext,
        node: ast.Attribute,
        aliases: dict[str, str],
        clocked: bool,
        out: list[Violation],
    ) -> None:
        # Only inspect the outermost attribute of a chain: resolve the
        # full dotted path once, not once per link.
        dotted = resolve_dotted(node, aliases)
        if dotted is None:
            return
        if dotted.startswith("asyncio."):
            if clocked:
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        f"{dotted} schedules on wall-clock asyncio "
                        "timers; simulation code uses sim.schedule "
                        "(asyncio belongs in repro.service)",
                    )
                )
        elif dotted.startswith("random."):
            out.append(
                ctx.violation(
                    node,
                    self.code,
                    f"{dotted} uses stdlib random; take a seeded stream "
                    "from repro.sim.rng",
                )
            )
        elif dotted.startswith("numpy.random."):
            out.append(
                ctx.violation(
                    node,
                    self.code,
                    f"{dotted} is numpy module-state RNG; use a seeded "
                    "repro.sim.rng stream",
                )
            )
        elif dotted.startswith("secrets."):
            out.append(
                ctx.violation(
                    node,
                    self.code,
                    f"{dotted} draws OS entropy; simulation randomness "
                    "must come from repro.sim.rng",
                )
            )
        elif dotted.startswith("time.") and dotted[5:] in _WALL_CLOCK:
            if clocked:
                out.append(
                    ctx.violation(
                        node,
                        self.code,
                        f"{dotted} is a wall-clock read; simulation time "
                        "comes from the event loop (sim.now)",
                    )
                )
        elif dotted in _WALL_CLOCK_EXACT:
            if clocked:
                out.append(
                    ctx.violation(node, self.code, _WALL_CLOCK_EXACT[dotted])
                )
        elif dotted in _BANNED_EXACT:
            out.append(ctx.violation(node, self.code, _BANNED_EXACT[dotted]))

    # ----------------------------------------------------- event-loop time

    def _check_loop_time(
        self, ctx: FileContext, node: ast.Call, out: list[Violation]
    ) -> None:
        """The ``loop.time()`` idiom: asyncio's clock without the import."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in _LOOP_NAMES
            and not node.args
            and not node.keywords
        ):
            out.append(
                ctx.violation(
                    node,
                    self.code,
                    f"{func.value.id}.time() reads the event-loop wall "
                    "clock; simulation time comes from sim.now "
                    "(wall-clock belongs in repro.service)",
                )
            )

    # ------------------------------------------------------- set ordering

    def _check_set_iteration(
        self, ctx: FileContext, iterable: ast.AST, out: list[Violation]
    ) -> None:
        if _is_set_expr(iterable):
            out.append(
                ctx.violation(
                    iterable,
                    self.code,
                    "iteration order over a set depends on "
                    "PYTHONHASHSEED; wrap it in sorted(...)",
                )
            )

    def _check_order_sink(
        self, ctx: FileContext, node: ast.Call, out: list[Violation]
    ) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SINKS
            and len(node.args) >= 1
            and _is_set_expr(node.args[0])
        ):
            out.append(
                ctx.violation(
                    node,
                    self.code,
                    f"{node.func.id}() over a set materializes "
                    "PYTHONHASHSEED-dependent order; wrap the set in "
                    "sorted(...)",
                )
            )

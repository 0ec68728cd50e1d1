"""RL013: blocking calls reachable from event-loop code.

The streaming service multiplexes every session onto one asyncio event
loop. Anything that blocks that loop -- ``time.sleep``, sync file or
socket I/O, ``subprocess``, an unbounded CPU loop -- stalls *all*
sessions at once, and worse, silently corrupts the experiment: ACKs
queue up during the stall, so ``RapPacer`` sees an inflated SRTT and a
compressed ACK clock, and the §2.2 adaptation decisions under test are
made from measurement artifacts rather than network state.

The rule consumes :class:`repro.lint.flow.asyncgraph.AsyncGraph`:

- a **direct blocking site** in a coroutine or loop-scheduled callback
  is flagged where it stands;
- a call from loop code into a *sync* helper that may block is flagged
  at the call site, with the witness chain down to the blocking call in
  the message (the helper itself may be legitimately called from
  non-loop code, so the helper is not flagged);
- ``json.dumps``/``loads`` reachable within a few hops of a per-packet
  protocol callback (``datagram_received``/``data_received``) is
  flagged at the JSON site: per-datagram text codec work is the hot
  path tax the struct DATA/ACK framing exists to avoid.

Work handed to ``run_in_executor``/``asyncio.to_thread`` is exempt --
that is the sanctioned escape hatch, and the runtime sanitizer
(``repro.service.sanitizer``) verifies the remaining loop really does
stay responsive.
"""

from __future__ import annotations

from typing import ClassVar

from repro.lint.flow.asyncgraph import AsyncGraph
from repro.lint.flow.project import Project
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation

#: Hops from a per-packet callback within which JSON work counts as
#: hot-path (one dispatch layer plus the codec helper).
_HOT_PATH_DEPTH = 4


class AsyncBlockingRule(FlowRule):
    code: ClassVar[str] = "RL013"
    title: ClassVar[str] = "blocking call on the event loop"
    rationale: ClassVar[str] = (
        "a blocked event loop stalls every session and inflates the "
        "SRTT/rate signals RapPacer feeds into the drop rule, so "
        "adaptation decisions are made from measurement artifacts"
    )

    uses_async_facts: ClassVar[bool] = True

    def check_project(self, project: Project) -> list[Violation]:
        graph = project.asyncgraph()
        out: list[Violation] = []
        for qualname in sorted(graph.functions):
            facts = graph.functions[qualname]
            if not facts.on_loop:
                continue
            ctx = project.modules[facts.module].ctx
            where = "coroutine" if facts.is_coroutine else "loop callback"
            name = qualname.rsplit(".", 1)[-1]
            for site in facts.blocking:
                out.append(ctx.violation(
                    site.node, self.code,
                    f"blocking {site.what} in {where} {name}(); hand it "
                    f"to run_in_executor() or an async equivalent",
                ))
            for call, target in facts.calls:
                sub = graph.functions.get(target)
                if sub is None or sub.may_block is None:
                    continue
                if sub.is_coroutine or sub.blocking:
                    # The coroutine (or the helper with the direct
                    # site, when it is loop code itself) owns the
                    # finding; don't double-report at every caller.
                    if not sub.on_loop and sub.blocking:
                        out.append(ctx.violation(
                            call, self.code,
                            f"{where} {name}() calls {_leaf(target)}(), "
                            f"which blocks via "
                            f"{sub.may_block.describe()}",
                        ))
                    continue
                out.append(ctx.violation(
                    call, self.code,
                    f"{where} {name}() calls {_leaf(target)}(), which "
                    f"blocks via {sub.may_block.describe()}",
                ))
        out.extend(self._hot_path_json(project, graph))
        return out

    def _hot_path_json(
        self, project: Project, graph: AsyncGraph
    ) -> list[Violation]:
        hot: set[str] = set()
        callbacks: dict[str, str] = {}
        for qualname, facts in graph.functions.items():
            if facts.packet_callback:
                for reached in graph.reachable(qualname, _HOT_PATH_DEPTH):
                    hot.add(reached)
                    callbacks.setdefault(reached, qualname)
        out: list[Violation] = []
        for qualname in sorted(hot):
            facts = graph.functions.get(qualname)
            if facts is None or not facts.json_sites:
                continue
            ctx = project.modules[facts.module].ctx
            origin = _leaf(callbacks[qualname])
            for site in facts.json_sites:
                out.append(ctx.violation(
                    site.node, self.code,
                    f"{site.what} on the per-packet path from "
                    f"{origin}(); JSON codec work belongs on control "
                    f"frames only, not the datagram hot path",
                ))
        return out


def _leaf(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]

"""RL014: shared mutable state written across an ``await``.

Single-threaded asyncio removes data races but not *interleaving*
races: every ``await`` is a point where any other task or callback can
run. A coroutine that reads shared state, suspends, and then writes it
back has re-ordered itself against every other writer of that state --
the classic read-modify-write lost update, just with ``await`` instead
of a thread switch.

The rule consumes the async graph's span analysis and task contexts:

- a *spanning write* is a write to a ``self`` attribute (or mutable
  module global) in a coroutine where the same attribute was accessed
  earlier in the body with an ``await`` in between. Loops containing an
  ``await`` are unrolled once, so iteration N's access pairs with
  iteration N+1's write. A single read-modify-write statement
  (``self.n += 1``) never spans -- statements are atomic between
  awaits;
- the write is only a finding when the attribute is *shared*: accessed
  from at least two concurrently-live contexts (two different spawn
  targets, or a spawn target and the event-loop callback context);
- accesses whose every occurrence sits inside ``async with`` on an
  ``asyncio.Lock``/``Semaphore``/``Condition`` attribute are exempt,
  as is state written only during ``__init__`` (construction handoff
  happens-before any sharing).

Fix patterns: make the update a single statement, take the shared
object local before the first ``await``, or guard the span with an
``asyncio.Lock``.
"""

from __future__ import annotations

from typing import ClassVar

from repro.lint.flow.project import Project
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation


class AsyncSharedStateRule(FlowRule):
    code: ClassVar[str] = "RL014"
    title: ClassVar[str] = "cross-task state written across an await"
    rationale: ClassVar[str] = (
        "an await between reading and writing shared state is a lost-"
        "update window: another task or callback can mutate the same "
        "attribute while this coroutine is suspended"
    )

    uses_async_facts: ClassVar[bool] = True

    def check_project(self, project: Project) -> list[Violation]:
        graph = project.asyncgraph()
        key_contexts = graph.access_contexts()
        guarded = graph.guarded_keys()
        out: list[Violation] = []
        for qualname in sorted(graph.spans):
            facts = graph.functions[qualname]
            ctx = project.modules[facts.module].ctx
            for span in graph.spans[qualname]:
                key = (span.owner, span.attr)
                contexts = key_contexts.get(key, set())
                if len(contexts) < 2 or key in guarded:
                    continue
                what = (
                    f"{_leaf(span.owner)}.{span.attr}"
                    if span.owner
                    else f"module global '{span.attr}'"
                )
                others = sorted(
                    _leaf(c) for c in contexts if qualname not in
                    graph.contexts.get(c, frozenset())
                )
                shared_with = (
                    f"also touched from {', '.join(others)}"
                    if others
                    else f"shared across {len(contexts)} task contexts"
                )
                out.append(ctx.violation(
                    span.node, self.code,
                    f"{what} written after an await in "
                    f"{_leaf(qualname)}() but {shared_with}; the "
                    f"suspension is a lost-update window -- update in "
                    f"one statement or guard with asyncio.Lock",
                ))
        return out


def _leaf(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]

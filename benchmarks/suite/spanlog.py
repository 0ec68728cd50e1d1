"""The harness-owned span log: (name, start, end, parent) in memory.

Every traced workload records one root span per dispatched simulator
event or event-loop callback and a child span at each seam the harness
can reach from outside the program. Spans live in parallel arrays (a
packet workload opens about two million of them) and are aggregated
once, after the timed region; nothing here is imported by ``src/``.

Span names are ``"<layer>:<what>"`` — ``"core.adapter:pick"``,
``"sim.link:deliver"`` — so a layer's self time is the sum over every
name carrying its prefix. Self time is a span's duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStats:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanLog:
    """Append-only span store with a current-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._open = -1

    def name(self, text: str) -> int:
        """Intern a span name; hot paths pass the id, not the string."""
        found = self._ids.get(text)
        if found is None:
            found = self._ids[text] = len(self.names)
            self.names.append(text)
        return found

    def __len__(self) -> int:
        return len(self.starts)

    # ----------------------------------------------------------- recording

    def begin(self, name_id: int) -> None:
        """Open a child of the current span.

        The clock is read last (and first in :meth:`end`) so the log's
        own bookkeeping is charged to the parent, not to the span.
        """
        self.name_ids.append(name_id)
        self.parents.append(self._open)
        self.ends.append(0.0)
        self._open = len(self.starts)
        self.starts.append(self.clock())

    def end(self) -> None:
        now = self.clock()
        index = self._open
        self.ends[index] = now
        self._open = self.parents[index]

    def end_at(self, end: float, name_id: int) -> None:
        """Close the current span at ``end`` and (re)name it.

        The simulator's dispatch observer learns which handler ran only
        after it returned, so the root span opens anonymous.
        """
        index = self._open
        self.ends[index] = end
        self.name_ids[index] = name_id
        self._open = self.parents[index]

    # ----------------------------------------------------------- reporting

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name count, inclusive time and self time."""
        n = len(self.starts)
        child_time = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
        stats = [SpanStats() for _ in self.names]
        name_ids = self.name_ids
        for i in range(n):
            entry = stats[name_ids[i]]
            duration = ends[i] - starts[i]
            entry.count += 1
            entry.total_s += duration
            entry.self_s += duration - child_time[i]
        return dict(zip(self.names, stats))

    def durations(self, name: str) -> list[float]:
        """Every duration (seconds) recorded under ``name``."""
        wanted = self._ids.get(name)
        if wanted is None:
            return []
        starts, ends = self.starts, self.ends
        return [ends[i] - starts[i]
                for i, nid in enumerate(self.name_ids) if nid == wanted]

    def dump(self, path: str) -> None:
        """Write one JSON object per span: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for i, nid in enumerate(self.name_ids):
                out.write(json.dumps({
                    "id": i,
                    "name": self.names[nid],
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")


def layer_self_seconds(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Self time summed per layer (the part of a name before ``:``)."""
    out: dict[str, float] = {}
    for name, entry in stats.items():
        layer = name.split(":", 1)[0]
        out[layer] = out.get(layer, 0.0) + entry.self_s
    return out

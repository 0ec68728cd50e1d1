"""Per-rule wall-time accounting for ``repro-lint --profile``.

A slow rule hides inside an aggregate "lint took N seconds" number.
The profiler attributes wall-clock time to named phases
(``project:build``) and to each rule code, so a bench regression points
at the rule that caused it.

Timings accumulate across files: a per-file rule's entry is its total
over the whole run, and a flow rule's entry is its single
``check_project`` call. A lazily built shared analysis (the call graph,
the summaries) lands on the first rule that asks for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Profiler:
    """Accumulates wall-clock seconds keyed by phase or rule label."""

    timings: dict[str, float] = field(default_factory=dict)

    def add(self, label: str, seconds: float) -> None:
        self.timings[label] = self.timings.get(label, 0.0) + seconds

    @contextmanager
    def measure(self, label: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(label, time.perf_counter() - start)

    def report_json(self) -> dict[str, float]:
        """Label -> seconds, rounded so reports diff cleanly."""
        return {
            label: round(seconds, 6)
            for label, seconds in sorted(self.timings.items())
        }

    def report_text(self) -> str:
        """Aligned table, most expensive first, with a total row."""
        if not self.timings:
            return "profile: no timings recorded"
        total = sum(self.timings.values())
        width = max(
            len("phase/rule"),
            max(len(label) for label in self.timings),
        )
        lines = [f"{'phase/rule'.ljust(width)}  seconds   share"]
        ranked = sorted(
            self.timings.items(), key=lambda item: (-item[1], item[0])
        )
        for label, seconds in ranked:
            share = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"{label.ljust(width)}  {seconds:7.3f}  {share:5.1f}%"
            )
        lines.append(f"{'total'.ljust(width)}  {total:7.3f}")
        return "\n".join(lines)

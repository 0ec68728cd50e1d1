"""The paper's quality notion, pooled over every session of a run.

Four numbers, each from server-side instants and client-side playout
counters — never from sampled time series, so they are exact and
bit-reproducible for a seed:

- ``mean_layers``: time-weighted active layers per session, integrated
  from the add/drop instants;
- ``quality_changes_per_min``: adds + drops per session-minute;
- ``playback_share``: the share of wanted playout that was not stalled
  (1 - stall ratio; the ratio itself is 0 on every healthy run and a
  metric that is 0 has no relative bound);
- ``buffer_efficiency``: Table 1's mean ``e`` over drop events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def layer_seconds(add_times: Iterable[float], drop_times: Iterable[float],
                  start: float, end: float) -> float:
    """``∫ na dt`` over ``[start, end]``: one layer at ``start``, +1 at
    every add instant, -1 at every drop instant (clipped to the window)."""
    steps = sorted([(t, 1) for t in add_times]
                   + [(t, -1) for t in drop_times])
    active, last, area = 1, start, 0.0
    for t, delta in steps:
        t = min(max(t, start), end)
        area += active * (t - last)
        last = t
        active += delta
    return area + active * (end - last)


@dataclass
class Quality:
    """Additive accumulators; :meth:`merge` pools runs and sub-seeds."""

    layer_seconds: float = 0.0
    session_seconds: float = 0.0
    changes: int = 0
    #: Playout wanted / missed, in one unit per workload (seconds for
    #: sessions, bytes for the fluid batch, which keeps no stall clock).
    play_wanted: float = 0.0
    play_missed: float = 0.0
    #: Table 1: sum of per-drop ``e`` over the number of drop events.
    #: The fluid batch exposes only byte totals, so there the pair is
    #: (sent - discarded, sent): the share of sent bytes no drop wasted.
    efficiency_num: float = 0.0
    efficiency_den: float = 0.0

    def add_session(self, add_times: Sequence[float],
                    drop_times: Sequence[float],
                    drop_efficiencies: Sequence[float],
                    start: float, end: float,
                    stall_seconds: float) -> None:
        self.layer_seconds += layer_seconds(add_times, drop_times,
                                            start, end)
        self.session_seconds += end - start
        self.changes += len(add_times) + len(drop_times)
        self.play_wanted += end - start
        self.play_missed += stall_seconds
        self.efficiency_num += sum(drop_efficiencies)
        self.efficiency_den += len(drop_efficiencies)

    def merge(self, other: "Quality") -> None:
        for field in self.__dataclass_fields__:
            setattr(self, field,
                    getattr(self, field) + getattr(other, field))

    def metrics(self) -> dict[str, float]:
        return {
            "mean_layers": self.layer_seconds / self.session_seconds,
            "quality_changes_per_min":
                60.0 * self.changes / self.session_seconds,
            "playback_share": 1.0 - self.play_missed / self.play_wanted,
            # No drop event means no buffering was wasted.
            "buffer_efficiency": (self.efficiency_num / self.efficiency_den
                                  if self.efficiency_den else 1.0),
        }

"""Evaluation metrics (section 5, Tables 1 and 2).

Two headline numbers quantify how well the inter-layer buffer
distribution works:

- **Buffering efficiency** (Table 1): when a layer is dropped, any data
  still buffered for it stops providing buffering functionality. Per drop
  event, ``e = (buf_total - buf_drop) / buf_total``; the table reports the
  mean of ``e`` over all drop events of a run.
- **Drops due to poor buffer distribution** (Table 2): the percentage of
  drop events that would not have happened had the *same total* buffering
  been distributed differently -- i.e. drops where total buffering was
  sufficient for recovery but some layer's buffer ran dry anyway.

Plus general quality-of-experience counters: quality (layer) changes,
startup latency, stalls, time-averaged quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.tolerances import at_least


class DropCause(Enum):
    """Why a layer was dropped."""

    #: The section 2.2 rule: total buffering below the recovery triangle.
    RULE = "rule"
    #: A layer's own buffer ran dry (critical situation of section 2.2).
    UNDERFLOW = "underflow"
    #: The draining planner could not cover the period's deficit.
    SHORTFALL = "shortfall"


@dataclass
class DropEvent:
    """One dropped layer, with the state needed for Tables 1 and 2.

    Attributes:
        buf_total: all receiver buffering at drop time (Table 1's base).
        drainable: the part of ``buf_total`` actually usable for recovery
            (excludes the base layer's in-flight/stall-protection margin).
            Defaults to ``buf_total`` when the caller does not separate
            the two.
        required: the recovery requirement ``(na*C - R)^2 / (2S)`` at
            drop time.
    """

    time: float
    layer: int
    buf_drop: float
    buf_total: float
    required: float
    cause: DropCause
    drainable: float = -1.0

    def __post_init__(self) -> None:
        if self.drainable < 0:
            self.drainable = self.buf_total

    @property
    def efficiency(self) -> float:
        """Table 1's ``e`` for this event (1.0 when nothing was buffered)."""
        if self.buf_total <= 0:
            return 1.0
        return (self.buf_total - self.buf_drop) / self.buf_total

    @property
    def poor_distribution(self) -> bool:
        """Table 2's criterion: usable buffering was sufficient, yet we
        dropped -- only a different distribution could have saved the
        layer."""
        return at_least(self.drainable, self.required)


@dataclass
class QualityMetrics:
    """Accumulates QA events over one run."""

    drops: list[DropEvent] = field(default_factory=list)
    adds: list[tuple[float, int]] = field(default_factory=list)
    stall_count: int = 0
    stall_time: float = 0.0
    startup_latency: Optional[float] = None
    base_underflow_bytes: float = 0.0

    # ----------------------------------------------------------- recording

    def record_drop(self, event: DropEvent) -> None:
        """Log a layer-drop event (feeds Tables 1 and 2)."""
        self.drops.append(event)

    def record_add(self, time: float, new_layer: int) -> None:
        """Log a layer add (feeds the quality-change counters)."""
        self.adds.append((time, new_layer))

    def record_stall(self, duration: float) -> None:
        """Log one playback stall of ``duration`` seconds."""
        self.stall_count += 1
        self.stall_time += duration

    # ------------------------------------------------------------- tables

    def buffering_efficiency(self) -> Optional[float]:
        """Table 1: mean efficiency across drop events (None: no drops)."""
        if not self.drops:
            return None
        return sum(e.efficiency for e in self.drops) / len(self.drops)

    def poor_distribution_percent(self) -> Optional[float]:
        """Table 2: percent of drops blamed on distribution (None: no
        drops, rendered '-' as in the paper's Kmax=8/T1 cell)."""
        if not self.drops:
            return None
        bad = sum(1 for e in self.drops if e.poor_distribution)
        return 100.0 * bad / len(self.drops)

    # --------------------------------------------------------------- QoE

    @property
    def quality_changes(self) -> int:
        """Total number of layer adds plus drops (smoothing metric)."""
        return len(self.adds) + len(self.drops)

    def summary(self) -> dict[str, Optional[float]]:
        """Everything the experiment harnesses print."""
        eff = self.buffering_efficiency()
        poor = self.poor_distribution_percent()
        return {
            "drops": len(self.drops),
            "adds": len(self.adds),
            "quality_changes": self.quality_changes,
            "efficiency_percent": None if eff is None else 100.0 * eff,
            "poor_distribution_percent": poor,
            "stall_count": self.stall_count,
            "stall_time": self.stall_time,
            "startup_latency": self.startup_latency,
        }

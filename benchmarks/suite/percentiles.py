"""Exact order statistics for the benchmark suite.

``repro.telemetry.digest.percentile`` snaps to a ~7 % log grid so that
digests merge exactly across hosts; two different runs can therefore
print the identical p99. A benchmark that has to show a 5 % change
needs the raw order statistic instead, so every p50/p99 the suite
prints goes through :func:`percentile` over the raw samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supported(n: int, q: float) -> bool:
    """Do at least :data:`MIN_SAMPLES_BEYOND` of ``n`` samples lie beyond
    the ``q``-quantile?"""
    return n - math.ceil(q * n) >= MIN_SAMPLES_BEYOND


def percentile_or_none(samples: Sequence[float], q: float
                       ) -> Optional[float]:
    """:func:`percentile`, or ``None`` when the sample cannot support it."""
    if not supported(len(samples), q):
        return None
    return percentile(samples, q)


def p50_p99(samples: Sequence[float], prefix: str) -> dict[str, float]:
    """``{prefix_p50, prefix_p99}``, each only if the sample supports it."""
    out = {}
    for q, label in ((0.5, "p50"), (0.99, "p99")):
        value = percentile_or_none(samples, q)
        if value is not None:
            out[f"{prefix}_{label}"] = value
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes its spread."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

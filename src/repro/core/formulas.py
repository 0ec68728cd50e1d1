"""Appendix A: the analytic core of quality adaptation.

All formulas describe the AIMD sawtooth geometry of Figure 3: the
transmission rate climbs linearly at slope ``S`` (bytes/s per second),
halves at each backoff, and while it is below the total consumption rate
``na*C`` the difference must be drawn from receiver buffers. Areas under
the rate/consumption curves are bytes.

Conventions used throughout:

- ``rate``: the transmission rate **before** the (first) backoff, R.
- ``consumption``: total consumption rate ``na * C``.
- ``layer_rate``: per-layer consumption rate C.
- ``slope``: the linear-increase rate S.
- Layer 0 is the base layer; per-layer share vectors are base-first.

The key geometric facts (derived in DESIGN.md section 1):

- A draining phase starting with deficit ``D0 = consumption - R/2`` lasts
  ``D0/S`` seconds and consumes ``D0^2 / (2S)`` bytes of buffer
  (the area of triangle *cde* in Figure 3).
- Slicing that triangle into horizontal bands of height C gives the
  optimal per-layer shares (Figure 4): band i (counting from the bottom,
  assigned to layer i) has area ``(C/S) * (D0 - (i + 1/2) * C)``; the top
  band is the partial triangle ``(D0 - (nb-1)*C)^2 / (2S)``.
- Scenario 1 with k backoffs: the same triangle with ``R -> R/2^k``.
- Scenario 2 with k backoffs (Figure 14): ``k1`` immediate backoffs bring
  the rate just below consumption, then each of the remaining ``k - k1``
  backoffs happens right when the rate has climbed back to consumption,
  producing identical triangles of height ``consumption/2``.
  :func:`repro.core.states.ladder` composes both scenarios' states.
"""

from __future__ import annotations

import math
from typing import Sequence

# Re-exported: every tolerance is defined once, in core.tolerances.
from repro.core.tolerances import EPSILON as EPSILON
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2, Seconds

SCENARIO_ONE = 1
SCENARIO_TWO = 2


def triangle_area(deficit: BytesPerSec, slope: BytesPerSec2) -> Bytes:
    """Bytes drained while a deficit ``deficit`` closes at slope ``slope``.

    This is equation (1) of the paper: ``A = L_ce^2 / (2S)``. Non-positive
    deficits need no buffering.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    if deficit <= 0:
        return 0.0
    return deficit * deficit / (2.0 * slope)


def deficit_after_backoffs(rate: BytesPerSec, consumption: BytesPerSec,
                           k: int) -> BytesPerSec:
    """Consumption minus the rate left after ``k`` immediate halvings."""
    if k < 0:
        raise ValueError("k cannot be negative")
    return consumption - rate / (2.0 ** k)


def min_buffering_layers(deficit: BytesPerSec,
                         layer_rate: BytesPerSec) -> int:
    """``nb``: minimum number of layers that must hold buffering.

    A single layer can supply at most C of the deficit at any instant, so
    covering a peak deficit ``D0`` needs ``ceil(D0 / C)`` buffering layers
    (section 2.4).
    """
    if layer_rate <= 0:
        raise ValueError("layer_rate must be positive")
    if deficit <= EPSILON:
        return 0
    return math.ceil(deficit / layer_rate - EPSILON)


def band_shares(deficit: BytesPerSec, layer_rate: BytesPerSec,
                slope: BytesPerSec2) -> tuple[Bytes, ...]:
    """Optimal per-layer buffer shares for one deficit triangle (Figure 4).

    Slices the triangle into horizontal bands of height ``layer_rate``.
    The bottom band (largest, longest-lived) goes to the base layer;
    ``shares[i]`` is layer i's share. Bands above the deficit peak are
    absent (those layers need no buffering). The shares sum to
    ``triangle_area(deficit, slope)`` exactly.
    """
    if deficit <= EPSILON:
        return ()
    two_s = 2.0 * slope
    shares: list[float] = []
    level = 0.0
    # A band's upper square is the next band's lower one.
    below = (deficit - level) ** 2
    while level < deficit - EPSILON:
        top = level + layer_rate
        if top > deficit:
            top = deficit
        above = (deficit - top) ** 2
        shares.append((below - above) / two_s)
        below, level = above, top
    return tuple(shares)


def one_backoff_requirement(rate: BytesPerSec, consumption: BytesPerSec,
                            slope: BytesPerSec2) -> Bytes:
    """Buffering needed to survive one backoff from ``rate`` (A.1).

    The adding condition C2 of section 2.1 evaluates this with
    ``consumption = (na + 1) * C``.
    """
    return triangle_area(consumption - rate / 2.0, slope)


def draining_recovery_requirement(rate: BytesPerSec,
                                  consumption: BytesPerSec,
                                  slope: BytesPerSec2) -> Bytes:
    """Buffering needed to finish the current draining phase (A.2).

    During draining the rate is already below consumption; the remaining
    deficit triangle has height ``consumption - rate``.
    """
    return triangle_area(consumption - rate, slope)


def drop_threshold(slope: BytesPerSec2, total_buffer: Bytes) -> BytesPerSec:
    """The section 2.2 comparison level ``sqrt(2 * S * total_buf)``.

    The largest deficit ``na*C - R`` the buffered data can still absorb:
    inverting equation (1), a triangle of height ``sqrt(2*S*A)`` has
    area ``A``. Exposed separately so decision records can log the exact
    right-hand side the drop rule compared against.
    """
    return math.sqrt(max(0.0, 2.0 * slope * total_buffer))


def layers_to_keep(rate: BytesPerSec, total_buffer: Bytes,
                   layer_rate: BytesPerSec, slope: BytesPerSec2,
                   active_layers: int) -> int:
    """The dropping mechanism of section 2.2.

    Iteratively drop the top layer while the buffered data cannot cover
    the remaining deficit triangle::

        WHILE na*C - R >= sqrt(2 * S * total_buf):  na -= 1

    The base layer is never dropped. Returns how many layers survive.
    """
    if active_layers < 1:
        raise ValueError("need at least one active layer")
    threshold = drop_threshold(slope, total_buffer)
    na = active_layers
    while na > 1 and na * layer_rate - rate >= threshold - EPSILON:
        na -= 1
    return na


def k1_backoffs(rate: BytesPerSec, consumption: BytesPerSec) -> int:
    """Minimum backoffs to push ``rate`` below ``consumption`` (A.4).

    At least one backoff always happens in a backoff scenario, so the
    result is >= 1 even when the rate is already below consumption.
    """
    if rate <= 0 or consumption <= 0:
        raise ValueError("rate and consumption must be positive")
    k1 = 1
    while rate / (2.0 ** k1) >= consumption - EPSILON:
        k1 += 1
    return k1


def drain_duration(deficit: BytesPerSec, slope: BytesPerSec2) -> Seconds:
    """Seconds until the rate climbs back up across the consumption rate."""
    if slope <= 0:
        raise ValueError("slope must be positive")
    return max(0.0, deficit / slope)


def share_sum(shares: Sequence[Bytes]) -> Bytes:
    """Float-stable sum for share vectors (tests compare against totals)."""
    return math.fsum(shares)

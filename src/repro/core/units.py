"""Unit helpers and unit-bearing type aliases.

Internally everything is **bytes** and **bytes per second** (the paper's
plots use KB/s). The conversion helpers exist so experiment configs can be
written in the paper's units without sprinkling magic constants.

The aliases below name the dimension of each quantity in the core QA
math. They are plain aliases (``Bytes`` *is* ``float``): they document
each dimension for the reader; nothing checks them.

Mapping to the paper's symbols (see docs/MECHANISM.md):

=================  =====================  ==========================
alias              dimension              paper symbol / use
=================  =====================  ==========================
``Bytes``          B                      buffer levels, shares, areas
``ByteCount``      B (integral)           packet sizes
``Seconds``        s                      periods, horizons, ``T_i``
``BytesPerSec``    B/s                    ``C``, ``R``, ``na*C``
``BytesPerSec2``   B/s^2                  the AIMD slope ``S``
``Scalar``         1                      ratios, gains, counts
=================  =====================  ==========================
"""

from __future__ import annotations

KILOBYTE = 1000  # the paper uses decimal KB/s axes

#: Buffered data, per-layer shares, triangle areas (B).
Bytes = float
#: Byte quantities that are inherently integral (packet sizes).
ByteCount = int
#: Durations, periods, backoff horizons (s).
Seconds = float
#: Rates: per-layer consumption ``C``, transmission ``R`` (B/s).
BytesPerSec = float
#: The AIMD linear-increase slope ``S`` (B/s^2).
BytesPerSec2 = float
#: Explicitly dimensionless quantities (ratios, gains, EWMA weights).
Scalar = float


def kbps_to_bytes(kilobits_per_second: float) -> BytesPerSec:
    """Kilobits/s (link speeds, e.g. '800 Kb/s bottleneck') to bytes/s."""
    return kilobits_per_second * 1000.0 / 8.0


def kBps_to_bytes(kilobytes_per_second: float) -> BytesPerSec:
    """Kilobytes/s (the paper's rate axes) to bytes/s."""
    return kilobytes_per_second * KILOBYTE


def bytes_to_kBps(bytes_per_second: BytesPerSec) -> float:
    """Bytes/s to the paper's KB/s axis units."""
    return bytes_per_second / KILOBYTE


def ms(milliseconds: float) -> Seconds:
    """Milliseconds to seconds."""
    return milliseconds / 1000.0

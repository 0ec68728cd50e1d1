"""Centralized float-comparison tolerances.

Every tolerance used when comparing unit-bearing floats lives here, so
the §2.2 crossing/bisection math, the playout boundary matching and the
byte-conservation checks all agree on what "equal" means. Define no
tolerance anywhere else, and compare unit-bearing floats through
:func:`close` rather than a raw ``==``: scattered ad-hoc epsilons are
how two code paths quietly disagree about whether a crossing fired,
which breaks the bit-for-bit determinism the golden and differential
harnesses depend on.

The constants keep their historical values (and therefore every golden
artifact byte-identical): they were introduced alongside the formula
layer (``EPSILON``), the fluid solver (``TIME_TOLERANCE``) and the fluid
engine (``TIME_SLACK``) and are re-exported from those modules.
"""

from __future__ import annotations

from typing import Final

from repro.core.units import Seconds

#: Tolerance for float comparisons on byte quantities (Appendix A
#: formulas, buffer shares, conservation residuals).
EPSILON: Final[float] = 1e-9

#: Bisection tolerance on event instants (seconds). Far below any
#: sampling period or RTT the differential harness compares at.
TIME_TOLERANCE: Final[Seconds] = 1e-7

#: Time slack when matching an epoch endpoint against a scheduled
#: boundary (backoff instant, playout start) in the fluid engine.
TIME_SLACK: Final[Seconds] = 1e-9


def close(a: float, b: float, tol: float = EPSILON) -> bool:
    """Absolute-tolerance equality for unit-bearing floats.

    Absolute (not relative) because every quantity compared in the
    reproduction is bounded by scenario scale — rates in B/s, times in
    seconds — and the goldens pin absolute values.
    """
    return abs(a - b) <= tol


def is_zero(value: float, tol: float = EPSILON) -> bool:
    """Is ``value`` zero up to ``tol``?"""
    return abs(value) <= tol


def at_least(a: float, b: float, tol: float = EPSILON) -> bool:
    """Tolerant ``a >= b``: true when ``a`` clears ``b`` minus ``tol``."""
    return a >= b - tol

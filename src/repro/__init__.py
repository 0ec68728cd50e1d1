"""repro: Quality Adaptation for Congestion Controlled Video Playback.

A full reproduction of Rejaie, Handley & Estrin (SIGCOMM 1999): layered
video quality adaptation over the RAP congestion controller, together with
the packet-level simulation substrate, baselines, and the experiment
harnesses that regenerate every table and figure of the paper.

Quick start::

    from repro import QAConfig, build_experiment

    exp = build_experiment(k_max=2, duration=40.0)
    result = exp.run()
    print(result.summary())

Package map:

- :mod:`repro.core`       -- the quality adaptation mechanism (the paper's
  contribution): formulas, optimal buffer states, filling/draining,
  add/drop rules, metrics.
- :mod:`repro.sim`        -- discrete-event network simulator (the ns-2
  stand-in).
- :mod:`repro.transport`  -- RAP, Sack-style TCP, CBR.
- :mod:`repro.media`      -- layered stream model and client playout.
- :mod:`repro.server`     -- server/client/session wiring.
- :mod:`repro.baselines`  -- the strawmen the paper argues against.
- :mod:`repro.analysis`   -- time-series reporting and ASCII plots.
- :mod:`repro.experiments`-- the paper's tables and figures as one table
  over deduplicated runs.
"""

from repro.core import QAConfig, QualityAdapter, QualityMetrics
from repro.core.states import BufferState, StateSequence
from repro.media import LayeredStream
from repro.server import StreamingSession
from repro.sim import Simulator, Dumbbell, DumbbellConfig

__version__ = "1.0.0"

__all__ = [
    "QAConfig",
    "QualityAdapter",
    "QualityMetrics",
    "BufferState",
    "StateSequence",
    "LayeredStream",
    "StreamingSession",
    "Simulator",
    "Dumbbell",
    "DumbbellConfig",
    "build_experiment",
    "__version__",
]


def build_experiment(**kwargs):
    """Convenience constructor for the paper's T1 workload.

    Lazy import so the light-weight core can be used without pulling in
    the experiment harness.
    """
    from repro.experiments.common import PaperWorkload

    return PaperWorkload(**kwargs)

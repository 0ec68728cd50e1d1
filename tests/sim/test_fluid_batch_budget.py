"""How many elements a batch run hands to its closed forms, pinned.

A window ramps every flow once; the back-off split, the §2.2 drop rule
and the add requirement are evaluated only for the flows they can
concern. Dense evaluation (every form over every flow in every window)
is the cost these counts keep out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import QAConfig
from repro.sim.fluid_batch import FlowClassBatch

equivalence = pytest.importorskip("tests.sim.test_fluid_batch_equivalence")

CONFIG = QAConfig(layer_rate=2500.0, max_layers=8, k_max=2)
FLOWS = 200
DURATION = 30.0


@pytest.fixture
def handed(monkeypatch):
    """Per-call element counts of ``_ramp_area`` and ``_add_requirement``."""
    sizes = {"_ramp_area": [], "_add_requirement": []}

    def counted(name):
        original = getattr(FlowClassBatch, name)

        def wrapper(self, first, second):
            sizes[name].append(np.size(first))
            return original(self, first, second)

        monkeypatch.setattr(FlowClassBatch, name, wrapper)

    for name in sizes:
        counted(name)
    return sizes


def test_each_closed_form_sees_only_the_flows_it_concerns(handed):
    batch = FlowClassBatch.jittered(CONFIG, FLOWS, slope=1000.0,
                                    duration=DURATION, seed=5)
    oracle = equivalence.as_dense(batch)
    result = batch.run()
    windows = int(round(DURATION / batch.step))
    backoffs = int(np.isfinite(batch.backoffs).sum())
    assert backoffs > FLOWS and result.adds.sum() and result.drops.sum()

    # One dense ramp per window, two legs per scripted back-off.
    assert sum(handed["_ramp_area"]) == FLOWS * windows + 2 * backoffs

    # The add requirement: filling flows under the layer ceiling, as the
    # dense body counts them window by window.
    oracle.run()
    seen = handed["_add_requirement"]
    assert seen == [c for c in oracle.add_candidates if c]
    assert sum(seen) < FLOWS * windows

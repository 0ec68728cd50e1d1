"""How many elements a batch run hands to its closed forms, pinned.

A window ramps every flow once; the back-off split is evaluated only
for the flows with a back-off in the window, and the add requirement
only for the flows that hold its first term — the K_max scenario-1
total, tested densely without ``log2`` or a gather — and are filling
under the layer ceiling. Dense evaluation (every form over every flow
in every window) is the cost these counts keep out.

One ``fluid_flock`` pass (10 000 flows, 150 s, seed 1, sub-seed 0) hands
``_add_requirement`` 153 712 elements to grant 117 898 adds; asking
every filling flow under the ceiling, as the window did before the
bound, hands it 7 444 831.
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

    # The add requirement: at least every flow that was granted a layer,
    # at most a twentieth of the filling flows under the ceiling (what
    # the dense body counts window by window).
    oracle.run()
    seen = sum(handed["_add_requirement"])
    assert result.adds.sum() <= seen <= 0.05 * sum(oracle.add_candidates)
    assert seen == 1209

"""``backoff_table`` against ``scripted_backoffs``, its per-flow reference.

The table is every flow's script, built without boxing a float: row
``i`` must equal flow ``i``'s list to the last bit (``==``), padded with
``inf``, and the table must be exactly as wide as the widest script.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.experiments.flock_scale import batch_config
from repro.sim.fluid_batch import (
    FlowClassBatch,
    backoff_table,
    scripted_backoffs,
)

#: (seed, duration, mean_interval, min_gap, jitter)
CASES = [
    (1, 150.0, 6.0, 0.2, 0.3),    # the flock-scale class
    (7, 40.0, 3.0, 0.2, 0.3),
    (3, 30.0, 6.0, 5.0, 0.3),     # min_gap binds for part of the gaps
    (4, 60.0, 2.0, 0.2, 0.0),     # no jitter: only the phase differs
    (5, 60.0, 2.0, 0.2, 0.9),
    (6, 0.5, 6.0, 0.2, 0.3),      # shorter than any first back-off
]


def assert_rows_are_the_scripts(table, seed, duration, mean_interval,
                                min_gap, jitter):
    scripts = [scripted_backoffs(seed, i, duration, mean_interval,
                                 min_gap, jitter)
               for i in range(len(table))]
    assert table.dtype == np.float64
    assert table.shape == (len(scripts), max(1, max(map(len, scripts))))
    for row, script in zip(table, scripts):
        assert row[:len(script)].tolist() == script
        assert np.all(row[len(script):] == np.inf)


@pytest.mark.parametrize("seed, duration, mean_interval, min_gap, jitter",
                         CASES)
def test_each_row_is_its_flows_script(seed, duration, mean_interval,
                                      min_gap, jitter):
    table = backoff_table(seed, 500, duration, mean_interval, min_gap,
                          jitter)
    assert_rows_are_the_scripts(table, seed, duration, mean_interval,
                                min_gap, jitter)


def test_rows_span_every_chunk_of_draws():
    # More flows than one pass of draws holds, the last pass partial.
    table = backoff_table(2, 2_100, 20.0, 6.0, 0.2)
    assert_rows_are_the_scripts(table, 2, 20.0, 6.0, 0.2, 0.3)


def test_no_backoff_at_all_is_one_column_of_inf():
    table = backoff_table(6, 50, 0.5, 6.0, 0.2)
    assert table.shape == (50, 1)
    assert np.all(table == np.inf)


def test_a_script_past_the_width_bound_is_an_error():
    # A negative mean starts scripts before 0, outside the bound the
    # table is sized by; the reference list is longer than any row.
    assert len(scripted_backoffs(1, 0, 10.0, -6.0, 0.2)) > 10.0 / 0.2 + 3
    with pytest.raises(ValueError, match="outgrew"):
        backoff_table(1, 4, 10.0, -6.0, 0.2)
    with pytest.raises(ValueError, match="positive"):
        backoff_table(1, 4, 10.0, 6.0, 0.0, jitter=1.0)


def test_the_build_holds_at_most_four_tables():
    # The list-of-scripts build peaked near seven tables: boxed floats,
    # their lists, the padded copy and the spacing check's copies.
    tracemalloc.start()
    try:
        batch = FlowClassBatch.jittered(batch_config(), 10_000,
                                        slope=1000.0, duration=150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * batch.backoffs.nbytes


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 25))
def test_ten_thousand_rows_are_the_scripts(seed):
    params = CASES[seed % len(CASES)][1:]
    assert_rows_are_the_scripts(backoff_table(seed, 10_000, *params),
                                seed, *params)

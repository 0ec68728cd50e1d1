"""Flight recorder: record format, sequence numbers, seed stability.

The ring behaviour it shares with ``SpanRecorder`` (eviction, disabled
path, empty export) is in ``test_ring.py``.
"""

from __future__ import annotations

import concurrent.futures
import json

import pytest

from repro.experiments.multiflow_fairness import build_scenario
from repro.telemetry import DecisionRecord, FlightRecorder


class TestDecisionRecord:
    def test_json_line_is_sorted_and_compact(self):
        record = DecisionRecord(3, 1.25, "qa0", "drop",
                                {"layer": 2, "cause": "rule"})
        line = record.to_json()
        assert line == ('{"fields":{"cause":"rule","layer":2},'
                        '"kind":"drop","seq":3,"src":"qa0","t":1.25}')


class TestRingBuffer:
    def test_sequence_numbers_survive_eviction(self):
        rec = FlightRecorder(capacity=2)
        for i in range(4):
            rec.record(0.0, "qa", "tick", {})
        # seq keeps counting even though early records are gone.
        assert rec.total_recorded == 4
        assert [r.seq for r in rec] == [2, 3]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_records_of_filters_kind_and_source(self):
        rec = FlightRecorder()
        rec.record(0.0, "qa0", "drop", {})
        rec.record(1.0, "qa1", "drop", {})
        rec.record(2.0, "qa0", "add", {})
        assert len(rec.records_of("drop")) == 2
        assert [r.source for r in rec.records_of("drop", "qa1")] == ["qa1"]


class TestDisabledPath:
    def test_record_is_dropped(self):
        rec = FlightRecorder(enabled=False)
        rec.record(0.0, "qa", "drop", {})
        assert len(rec) == 0
        assert rec.total_recorded == 0


class TestExport:
    def test_write_jsonl_round_trips(self, tmp_path):
        rec = FlightRecorder()
        rec.record(0.5, "qa", "drop", {"layer": 2})
        rec.record(1.5, "qa", "add", {"layer": 2})
        target = rec.write_jsonl(tmp_path / "flight.jsonl")
        assert target is not None
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["kind"] for p in parsed] == ["drop", "add"]
        assert parsed[0]["fields"] == {"layer": 2}

    def test_summary_counts_kinds(self):
        rec = FlightRecorder(capacity=8)
        rec.record(0.0, "qa", "drop", {})
        rec.record(1.0, "qa", "drop", {})
        rec.record(2.0, "qa", "add", {})
        summary = rec.summary()
        assert summary["kinds"] == {"add": 1, "drop": 2}
        assert summary["recorded"] == 3
        assert summary["digest"] == rec.digest()


# ----------------------------------------------------------- determinism

def _multiflow_jsonl(seed: int) -> str:
    """Module-level so it pickles into a worker process."""
    scenario = build_scenario(1, 1, duration=5.0, seed=seed,
                              record_decisions=True)
    scenario.run()
    return scenario.recorder.to_jsonl()


class TestSeedStability:
    def test_same_seed_runs_are_bit_identical(self):
        assert _multiflow_jsonl(3) == _multiflow_jsonl(3)

    def test_worker_process_matches_serial(self):
        # The experiment runner farms cache misses out to worker
        # processes; the decision log must not depend on process
        # identity or PYTHONHASHSEED.
        serial = _multiflow_jsonl(3)
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            pooled = pool.submit(_multiflow_jsonl, 3).result()
        assert pooled == serial

    def test_different_seeds_diverge(self):
        assert _multiflow_jsonl(3) != _multiflow_jsonl(4)

    def test_drop_records_carry_rule_inputs(self):
        scenario = build_scenario(2, 2, duration=15.0, seed=1,
                                  record_decisions=True)
        scenario.run()
        drops = scenario.recorder.records_of("drop")
        assert drops, "expected at least one layer drop in 15 s"
        for record in drops:
            # Every drop is annotated with the section 2.2 inequality
            # inputs: R, na*C, S, the drainable buffer, and the
            # sqrt(2*S*buf) threshold.
            assert {"rate", "consumption", "slope", "drainable",
                    "threshold", "buffers", "layer",
                    "cause"} <= set(record.fields)

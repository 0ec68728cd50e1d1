"""Scenario builder unit tests: wiring, labels, telemetry switch."""

from __future__ import annotations

import pytest

from repro.scenario import (
    CbrFlowSpec,
    QAFlowSpec,
    RapFlowSpec,
    Scenario,
    ScenarioConfig,
    TcpFlowSpec,
)
from repro.sim.topology import DumbbellConfig

FAST_LINK = DumbbellConfig(bottleneck_bandwidth=60_000.0,
                           queue_capacity_packets=30)


def test_flows_build_in_list_order_with_default_labels():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(), RapFlowSpec(), TcpFlowSpec(), CbrFlowSpec()),
        topology=FAST_LINK, duration=1.0))
    assert [f.kind for f in scenario.flows] == ["qa", "rap", "tcp", "cbr"]
    assert [f.label for f in scenario.flows] == ["qa0", "rap1", "tcp2",
                                                "cbr3"]
    assert len({f.flow_id for f in scenario.flows}) == 4


def test_empty_scenario_is_rejected():
    with pytest.raises(ValueError, match="at least one flow"):
        ScenarioConfig(flows=())


def test_the_bottleneck_is_monitored_and_its_utilization_reported():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(), TcpFlowSpec()),
        topology=FAST_LINK, duration=5.0))
    assert scenario.monitor.link is scenario.network.bottleneck
    result = scenario.run()
    assert len(result.link_utilization) == 1
    assert 0 < result.utilization <= 1


def test_flow_randomness_depends_only_on_slot_and_kind():
    """Changing one flow's kind must not perturb another flow's draws."""
    def tcp_start(first_flow):
        scenario = Scenario(ScenarioConfig(
            flows=(first_flow, TcpFlowSpec()),
            topology=FAST_LINK, duration=1.0))
        return scenario.flows[1].start

    assert tcp_start(QAFlowSpec()) == tcp_start(CbrFlowSpec())


def test_stop_time_halts_a_qa_flow():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(stop=3.0), TcpFlowSpec(start=0.0)),
        topology=FAST_LINK, duration=10.0))
    result = scenario.run()
    qa, tcp = result.flows
    assert qa.mean_rate < tcp.mean_rate


def test_telemetry_off_preserves_packet_fates():
    """The bus is observation only: disabling it changes no delivery."""
    def delivered(telemetry: bool):
        scenario = Scenario(ScenarioConfig(
            flows=(QAFlowSpec(), QAFlowSpec()),
            topology=FAST_LINK, duration=8.0, telemetry=telemetry))
        return [f.bytes_delivered for f in scenario.run().flows]

    assert delivered(True) == delivered(False)


def test_telemetry_off_records_nothing_but_keeps_metrics():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(),), topology=FAST_LINK,
        duration=5.0, telemetry=False))
    result = scenario.run()
    flow = result.flows[0]
    assert flow.bytes_delivered > 0
    assert flow.mean_layers() is None
    assert flow.session is not None
    assert "mean_layers" not in flow.session.summary()


def test_summary_lists_every_flow_rate():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(label="video"), TcpFlowSpec(label="web")),
        topology=FAST_LINK, duration=5.0))
    summary = scenario.run().summary()
    assert summary["n_flows"] == 2
    assert "rate_video" in summary and "rate_web" in summary
    assert 0.0 < summary["fairness"] <= 1.0


def test_trace_spans_are_deterministic_across_runs():
    def digest():
        scenario = Scenario(ScenarioConfig(
            flows=(QAFlowSpec(), QAFlowSpec()), topology=FAST_LINK,
            duration=3.0, seed=7, trace_spans=True))
        scenario.run()
        return scenario.spans.digest(), scenario.spans.trace_ids()

    first_digest, first_ids = digest()
    second_digest, second_ids = digest()
    assert first_digest == second_digest
    assert first_ids == second_ids
    assert len(first_ids) == 2  # one trace per QA flow


def test_trace_spans_cover_ticks_and_decisions():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(),), topology=FAST_LINK,
        duration=3.0, trace_spans=True))
    scenario.run()
    names = {s.name for s in scenario.spans}
    assert "qa.tick" in names
    assert "qa.add_eval" in names
    assert scenario.observability()["spans"]["recorded"] > 0


def test_trace_spans_off_is_free_and_absent_from_observability():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(),), topology=FAST_LINK, duration=2.0))
    scenario.run()
    assert len(scenario.spans) == 0
    assert "spans" not in scenario.observability()


def test_span_presence_does_not_change_flow_outcomes():
    def rates(trace_spans):
        scenario = Scenario(ScenarioConfig(
            flows=(QAFlowSpec(), QAFlowSpec()), topology=FAST_LINK,
            duration=4.0, seed=3, trace_spans=trace_spans))
        return [f.bytes_delivered for f in scenario.run().flows]

    assert rates(False) == rates(True)

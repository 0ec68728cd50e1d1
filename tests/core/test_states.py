"""Unit and property tests for the buffer-state sequence (Figures 8-10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import formulas
from repro.core.states import BufferState, StateSequence, kmax_targets

rates = st.floats(min_value=5_000, max_value=200_000)
layer_rates = st.floats(min_value=1_000, max_value=20_000)
slopes = st.floats(min_value=500, max_value=100_000)
layer_counts = st.integers(min_value=1, max_value=6)
k_maxes = st.integers(min_value=1, max_value=6)


def make(rate=30_000, layer_rate=6_500, na=4, slope=8_000, k_max=5):
    return StateSequence(rate, layer_rate, na, slope, k_max)


class TestConstruction:
    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            make(k_max=0)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            make(na=0)

    def test_contains_scenario1_for_every_k(self):
        seq = make(k_max=5)
        s1_ks = {s.k for s in seq if s.scenario == 1}
        assert s1_ks == {1, 2, 3, 4, 5}

    def test_scenario2_dedup_below_k1(self):
        # With rate < 2 * consumption, k1 == 1, so S2k1 duplicates S1k1
        # and is omitted.
        seq = make(rate=30_000, layer_rate=6_500, na=4)
        assert not any(s.scenario == 2 and s.k == 1 for s in seq)

    def test_indexing_and_iteration(self):
        seq = make()
        assert len(seq) > 0
        assert isinstance(seq[0], BufferState)
        assert list(seq)[0] is seq[0]

    def test_labels(self):
        assert BufferState(1, 3, 0.0, ()).label() == "S1k3"


class TestOrdering:
    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k_max=k_maxes)
    @settings(max_examples=150)
    def test_totals_sorted_ascending(self, rate, layer_rate, na, slope,
                                     k_max):
        seq = StateSequence(rate, layer_rate, na, slope, k_max)
        totals = [s.total for s in seq]
        assert totals == sorted(totals)

    def test_paper_example_interleaves_scenarios(self):
        # The canonical parameters reproduce the Figure 9 flavour:
        # S2k2 needs less than S1k2, S2k4 more than S1k4.
        seq = make()
        labels = [s.label() for s in seq]
        assert labels.index("S2k2") < labels.index("S1k2")
        assert labels.index("S1k4") < labels.index("S2k4")


class TestMonotonicity:
    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k_max=k_maxes)
    @settings(max_examples=150)
    def test_effective_shares_never_decrease(self, rate, layer_rate, na,
                                             slope, k_max):
        seq = StateSequence(rate, layer_rate, na, slope, k_max)
        previous = [0.0] * na
        for state in seq:
            for prev, cur in zip(previous, state.effective_shares):
                assert cur >= prev - 1e-9
            previous = list(state.effective_shares)

    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k_max=k_maxes)
    @settings(max_examples=150)
    def test_effective_dominates_raw(self, rate, layer_rate, na, slope,
                                     k_max):
        seq = StateSequence(rate, layer_rate, na, slope, k_max)
        for state in seq:
            for raw, eff in zip(state.shares, state.effective_shares):
                assert eff >= raw - 1e-9

    def test_effective_total_at_least_raw_total(self):
        for state in make():
            assert state.effective_total >= state.total - 1e-9


class TestQueries:
    def test_final_targets_are_last_state(self):
        seq = make()
        assert seq.final_targets == seq[-1].effective_shares

    def test_position_empty_buffers(self):
        seq = make()
        assert seq.position([0.0] * 4) == -1

    def test_position_full_buffers(self):
        seq = make()
        full = [x + 1 for x in seq.final_targets]
        assert seq.position(full) == len(seq) - 1

    def test_position_partial(self):
        seq = make()
        first = list(seq[0].effective_shares)
        assert seq.position(first) >= 0
        assert seq.position(first) < len(seq) - 1

    def test_survivable_position_uses_totals(self):
        seq = make()
        assert seq.survivable_position(0.0) == -1
        assert seq.survivable_position(seq[0].total + 1) >= 0
        assert seq.survivable_position(1e12) == len(seq) - 1

    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k_max=k_maxes,
           budget=st.floats(min_value=0, max_value=1e7))
    @settings(max_examples=100)
    def test_survivable_position_definition(self, rate, layer_rate, na,
                                            slope, k_max, budget):
        seq = StateSequence(rate, layer_rate, na, slope, k_max)
        pos = seq.survivable_position(budget)
        if pos >= 0:
            assert seq[pos].total <= budget + 1e-6
        if pos + 1 < len(seq):
            assert seq[pos + 1].total > budget - 1e-6


class TestKmaxTargetsKernel:
    """``kmax_targets`` is ``StateSequence.final_targets``, float for float."""

    @given(rate_factor=st.floats(min_value=0.05, max_value=6.0),
           layer_rate=layer_rates, na=st.integers(min_value=1, max_value=8),
           slope=st.floats(min_value=0.0, max_value=5.0).map(
               lambda e: 10.0 ** e),
           k_max=k_maxes)
    @settings(max_examples=500)
    def test_equals_the_sequence_end_exactly(self, rate_factor, layer_rate,
                                             na, slope, k_max):
        rate = rate_factor * na * layer_rate
        assert (kmax_targets(rate, layer_rate, na, slope, k_max)
                == StateSequence(rate, layer_rate, na, slope,
                                 k_max).final_targets)

    @pytest.mark.parametrize("rate,layer_rate,na,slope,k_max,k1", [
        (90_000.0, 2_500.0, 4, 1_000.0, 2, 4),    # k1 > k_max: no S2 state
        (30_000.0, 2_500.0, 4, 1_000.0, 2, 2),    # k1 == k_max
        (6_000.0, 2_500.0, 4, 1_000.0, 5, 1),     # rate < consumption
        (30_000.0, 6_500.0, 1, 8_000.0, 5, 3),    # one layer
        (30_000.0, 6_500.0, 4, 8_000.0, 5, 1),    # Figure 9's interleaving
    ])
    def test_explicit_cases(self, rate, layer_rate, na, slope, k_max, k1):
        assert formulas.k1_backoffs(rate, na * layer_rate) == k1
        assert (kmax_targets(rate, layer_rate, na, slope, k_max)
                == StateSequence(rate, layer_rate, na, slope,
                                 k_max).final_targets)

    def test_bands_outnumbering_the_layers_are_cut_alike(self):
        # Repeated addition of C falls short of na*C here, so the band
        # slicer yields an eighth sliver for seven layers.
        rate, layer_rate, na = 1.0342646672844409e-05, 9330526794.440449, 7
        bands = formulas.band_shares(na * layer_rate - rate / 2.0,
                                     layer_rate, 1_000.0)
        assert len(bands) == na + 1
        targets = kmax_targets(rate, layer_rate, na, 1_000.0, 2)
        assert len(targets) == na
        assert targets == StateSequence(rate, layer_rate, na, 1_000.0,
                                        2).final_targets

    @pytest.mark.parametrize("overrides", [
        {"k_max": 0}, {"na": 0}, {"rate": 0.0}, {"rate": -1.0},
        {"layer_rate": 0.0}, {"slope": 0.0},
    ])
    def test_rejects_what_the_sequence_rejects(self, overrides):
        args = dict(rate=30_000.0, layer_rate=6_500.0, na=4, slope=8_000.0,
                    k_max=5)
        args.update(overrides)
        with pytest.raises(ValueError) as from_sequence:
            make(**args)
        with pytest.raises(ValueError) as from_kernel:
            kmax_targets(args["rate"], args["layer_rate"], args["na"],
                         args["slope"], args["k_max"])
        assert str(from_kernel.value) == str(from_sequence.value)

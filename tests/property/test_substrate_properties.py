"""Property-based tests for the newer substrate modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.floorplan import LabGrid, PlacementStrategy, place_on_grid, routed_stage_delays
from repro.fpga.placement import RoutingClass, place_ring
from repro.trng.assessment import markov_estimate, most_common_value_estimate
from repro.trng.health import adaptive_proportion_cutoff, repetition_count_cutoff


@st.composite
def grids(draw):
    return LabGrid(
        columns=draw(st.integers(2, 10)),
        rows=draw(st.integers(2, 10)),
        lab_capacity=draw(st.integers(4, 16)),
    )


class TestFloorplanProperties:
    @settings(max_examples=40)
    @given(grids(), st.integers(3, 60), st.integers(0, 2**31 - 1))
    def test_scatter_placement_invariants(self, grid, stage_count, seed):
        if stage_count > grid.lut_count:
            stage_count = grid.lut_count
        placement = place_on_grid(stage_count, grid, PlacementStrategy.SCATTER, seed=seed)
        assert placement.stage_count == stage_count
        # Capacity respected and all hops within grid diameter.
        diameter = (grid.columns - 1) + (grid.rows - 1)
        assert all(0 <= d <= diameter for d in placement.hop_distances())

    @settings(max_examples=40)
    @given(grids(), st.integers(3, 60))
    def test_compact_never_longer_than_scatter_average(self, grid, stage_count):
        if stage_count > grid.lut_count:
            stage_count = grid.lut_count
        compact = place_on_grid(stage_count, grid, PlacementStrategy.COMPACT)
        scatter_lengths = [
            place_on_grid(stage_count, grid, PlacementStrategy.SCATTER, seed=s).total_wirelength()
            for s in range(5)
        ]
        assert compact.total_wirelength() <= max(scatter_lengths)

    @settings(max_examples=30)
    @given(grids(), st.integers(3, 60))
    def test_routed_delays_positive_and_bounded(self, grid, stage_count):
        if stage_count > grid.lut_count:
            stage_count = grid.lut_count
        placement = place_on_grid(stage_count, grid, PlacementStrategy.COMPACT)
        delays = routed_stage_delays(placement)
        assert np.all(delays >= 266.0 - 1e-9)
        diameter = (grid.columns - 1) + (grid.rows - 1)
        assert np.all(delays <= 200.0 + 161.0 + 35.0 * diameter + 1e-9)


class TestSequentialPlacementProperties:
    @settings(max_examples=60)
    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 500))
    def test_lab_count_matches_lut_span(self, stage_count, capacity, first_lut):
        placement = place_ring(stage_count, capacity, first_lut)
        last_lut = first_lut + stage_count - 1
        assert placement.lab_count == last_lut // capacity - first_lut // capacity + 1

    @settings(max_examples=60)
    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 500))
    def test_inter_lab_hops_equal_labs_entered(self, stage_count, capacity, first_lut):
        # A sequential ring enters every LAB it spans exactly once,
        # the wrap hop re-entering the first; one LAB means no crossing.
        placement = place_ring(stage_count, capacity, first_lut)
        crossings = placement.hop_classes.count(RoutingClass.INTER_LAB)
        expected = 0 if placement.lab_count == 1 else placement.lab_count
        assert crossings == expected

    @settings(max_examples=60)
    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 500))
    def test_labs_are_contiguous_and_filled_in_order(self, stage_count, capacity, first_lut):
        placement = place_ring(stage_count, capacity, first_lut)
        steps = np.diff(placement.lab_indices)
        assert np.all((steps == 0) | (steps == 1))
        assert all(
            lab == lut // capacity
            for lut, lab in zip(placement.lut_indices, placement.lab_indices)
        )


class TestAssessmentProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 0.95), st.integers(0, 2**31 - 1))
    def test_mcv_decreases_with_bias(self, p_one, seed):
        rng = np.random.default_rng(seed)
        biased = (rng.random(5000) < p_one).astype(int)
        fair = rng.integers(0, 2, 5000)
        if abs(p_one - 0.5) > 0.05:
            assert most_common_value_estimate(biased) <= most_common_value_estimate(fair) + 0.05

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_markov_bounded(self, seed):
        bits = np.random.default_rng(seed).integers(0, 2, 3000)
        assert 0.0 <= markov_estimate(bits) <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_inversion_invariance(self, seed):
        bits = np.random.default_rng(seed).integers(0, 2, 3000)
        assert most_common_value_estimate(bits) == pytest.approx(
            most_common_value_estimate(1 - bits), abs=1e-12
        )


class TestHealthCutoffProperties:
    @settings(max_examples=40)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_repetition_cutoff_antitone(self, h_low, h_high):
        low, high = sorted((h_low, h_high))
        assert repetition_count_cutoff(low) >= repetition_count_cutoff(high)

    @settings(max_examples=20)
    @given(st.floats(0.05, 1.0), st.sampled_from([64, 128, 512, 1024]))
    def test_proportion_cutoff_within_window(self, entropy, window):
        cutoff = adaptive_proportion_cutoff(entropy, window)
        assert 0 < cutoff <= window

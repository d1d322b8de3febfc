"""Differential jitter-transfer measurement with a co-located ring pair."""

import numpy as np
import pytest

from repro.fpga.board import BoardBank
from repro.measurement.differential import (
    ColocatedPair,
    DifferentialJitterReading,
    measure_pair,
    windowed_durations,
    worst_case_ripple,
)
from repro.simulation.noise import SinusoidalModulation


@pytest.fixture(scope="module")
def pair():
    bank = BoardBank.manufacture(board_count=1, seed=3)
    return ColocatedPair.on_board(bank[0], 9)


class TestColocatedPair:
    def test_rings_share_the_board_but_not_the_luts(self, pair):
        # Distinct placements -> distinct delay draws -> detuned periods.
        assert pair.ring_a.predicted_period_ps() != pair.ring_b.predicted_period_ps()

    def test_rejects_overlapping_placements(self):
        bank = BoardBank.manufacture(board_count=1, seed=3)
        with pytest.raises(ValueError, match="overlap"):
            ColocatedPair.on_board(bank[0], 9, lut_gap=5)
        with pytest.raises(ValueError, match="at least 3 stages"):
            ColocatedPair.on_board(bank[0], 2)

    def test_true_sigma_is_the_rms_of_both_rings(self, pair):
        expected = np.sqrt(
            0.5
            * (
                pair.ring_a.predicted_period_jitter_ps() ** 2
                + pair.ring_b.predicted_period_jitter_ps() ** 2
            )
        )
        assert pair.true_sigma_ps == pytest.approx(expected)

    def test_trigger_spacing_clears_the_slower_ring(self, pair):
        slower = max(
            pair.ring_a.predicted_period_ps(), pair.ring_b.predicted_period_ps()
        )
        assert pair.spacing_for(64) > 64 * slower

    def test_trigger_spacing_is_five_percent_past_the_slower_period(self, pair):
        slower = max(
            pair.ring_a.predicted_period_ps(), pair.ring_b.predicted_period_ps()
        )
        assert pair.trigger_spacing_ps == pytest.approx(1.05 * slower)


class TestWindowedDurations:
    def test_deterministic_in_the_seed(self, pair):
        first = windowed_durations(pair.ring_a, 16, 32, seed=5)
        second = windowed_durations(pair.ring_a, 16, 32, seed=5)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, windowed_durations(pair.ring_a, 16, 32, seed=6))

    def test_quiet_windows_center_on_the_nominal_duration(self, pair):
        durations = windowed_durations(pair.ring_a, 512, 64, seed=1)
        nominal = 64 * pair.ring_a.predicted_period_ps()
        sigma_window = np.sqrt(64) * pair.ring_a.predicted_period_jitter_ps()
        assert abs(np.mean(durations) - nominal) < 5 * sigma_window / np.sqrt(512)
        assert np.std(durations, ddof=1) == pytest.approx(sigma_window, rel=0.2)

    def test_validation_errors(self, pair):
        with pytest.raises(ValueError, match="at least 2 windows"):
            windowed_durations(pair.ring_a, 1, 32)
        with pytest.raises(ValueError, match="must be positive"):
            windowed_durations(pair.ring_a, 8, 0)
        with pytest.raises(ValueError, match="spacing must be positive"):
            windowed_durations(pair.ring_a, 8, 32, spacing_ps=0.0)

    def test_modulation_shifts_windows_deterministically(self, pair):
        ripple = SinusoidalModulation(amplitude=1e-3, period_ps=1e6)
        quiet = windowed_durations(pair.ring_a, 8, 32, seed=2)
        rippled = windowed_durations(pair.ring_a, 8, 32, seed=2, modulation=ripple)
        # Same noise stream, different deterministic component.
        assert not np.array_equal(quiet, rippled)
        assert np.std(quiet - rippled) > 0  # the shift varies across windows


class TestMeasurePair:
    def test_quiet_supply_both_estimators_track_truth(self, pair):
        reading = measure_pair(pair, window_count=512, periods_per_window=64, seed=11)
        assert isinstance(reading, DifferentialJitterReading)
        assert reading.differential_sigma_ps == pytest.approx(
            reading.true_sigma_ps, rel=0.15
        )
        assert reading.counter_sigma_a_ps == pytest.approx(
            reading.true_sigma_a_ps, rel=0.15
        )
        assert abs(reading.differential_bias) < 0.15
        assert abs(reading.counter_bias) < 0.15

    def test_worst_case_ripple_inflates_counter_not_differential(self, pair):
        ripple = worst_case_ripple(pair, 64, 7e-4)
        reading = measure_pair(
            pair, window_count=512, periods_per_window=64, seed=11, modulation=ripple
        )
        # The counter method absorbs the full anti-phase ripple swing...
        assert reading.counter_bias > 1.0
        # ...while the simultaneous difference cancels it.
        assert abs(reading.differential_bias) < 0.15

    def test_ripple_period_is_two_trigger_intervals(self, pair):
        ripple = worst_case_ripple(pair, 64, 1e-3)
        assert ripple.period_ps == pytest.approx(2.0 * pair.spacing_for(64))
        assert ripple.amplitude == pytest.approx(1e-3)

    def test_reading_is_deterministic_in_the_seed(self, pair):
        first = measure_pair(pair, 64, 32, seed=9)
        second = measure_pair(pair, 64, 32, seed=9)
        assert first == second

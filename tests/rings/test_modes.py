"""Oscillation-mode classification."""

import numpy as np
import pytest

from repro.rings.modes import (
    OscillationMode,
    classify_intervals,
    classify_trace,
)
from repro.simulation.waveform import EdgeTrace


def trace_from_intervals(intervals):
    return EdgeTrace(np.cumsum(np.concatenate([[10.0], intervals])))


class TestClassifyIntervals:
    def test_even_intervals(self):
        result = classify_intervals(np.full(64, 100.0))
        assert result.mode is OscillationMode.EVENLY_SPACED
        assert result.coefficient_of_variation == pytest.approx(0.0)
        assert result.gap_ratio == pytest.approx(1.0)

    def test_even_with_small_jitter(self):
        rng = np.random.default_rng(0)
        intervals = rng.normal(100.0, 2.0, size=256)
        assert classify_intervals(intervals).mode is OscillationMode.EVENLY_SPACED

    def test_burst_pattern(self):
        # Three quick toggles then a long silence, repeated.
        intervals = np.tile([20.0, 20.0, 20.0, 340.0], 16)
        result = classify_intervals(intervals)
        assert result.mode is OscillationMode.BURST
        assert result.gap_ratio > 2.5

    def test_irregular(self):
        rng = np.random.default_rng(1)
        intervals = rng.uniform(60.0, 140.0, size=256)
        result = classify_intervals(intervals)
        assert result.mode is OscillationMode.IRREGULAR

    def test_needs_enough_intervals(self):
        with pytest.raises(ValueError):
            classify_intervals(np.array([1.0, 2.0, 3.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_intervals(np.array([1.0, -2.0, 3.0, 4.0]))

    def test_threshold_overrides(self):
        intervals = np.tile([50.0, 150.0], 32)
        strict = classify_intervals(intervals, burst_gap_threshold=1.2)
        assert strict.mode is OscillationMode.BURST


class TestClassifyTrace:
    def test_trace_adapter(self):
        trace = trace_from_intervals(np.full(64, 100.0))
        assert classify_trace(trace).mode is OscillationMode.EVENLY_SPACED

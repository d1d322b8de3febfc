"""Jitter measurement procedures."""

import numpy as np
import pytest

from repro.measurement.counters import RippleDivider
from repro.measurement.jitter import (
    measure_period_jitter_direct,
    measure_period_jitter_divider,
)
from repro.measurement.oscilloscope import Oscilloscope, OscilloscopeSpec
from repro.measurement.probes import LvdsOutputPath
from repro.simulation.waveform import EdgeTrace


def jittery_wave(period_ps=3000.0, sigma_ps=3.0, cycles=2**14, seed=0):
    """Square wave whose rise-to-rise intervals are exactly N(T, sigma^2)."""
    rng = np.random.default_rng(seed)
    periods = rng.normal(period_ps, sigma_ps, size=cycles)
    rising = np.cumsum(periods) + 100.0
    falling = 0.5 * (rising[:-1] + rising[1:])
    times = np.sort(np.concatenate([rising, falling]))
    return EdgeTrace(times, first_value=1)


class TestDirectMeasurement:
    def test_reading_includes_scope_noise(self):
        trace = jittery_wave(sigma_ps=3.0, cycles=4096)
        reading = measure_period_jitter_direct(trace, seed=1)
        # sigma_measured^2 ~ sigma_true^2 + 2 * timestamp_noise^2
        expected = np.sqrt(3.0**2 + 2 * reading.timestamp_noise_ps**2)
        assert reading.sigma_period_ps == pytest.approx(expected, rel=0.15)

    def test_ideal_scope_reads_truth(self):
        trace = jittery_wave(sigma_ps=3.0, cycles=8192)
        reading = measure_period_jitter_direct(
            trace,
            scope=Oscilloscope(OscilloscopeSpec.ideal(), seed=0),
            output_path=LvdsOutputPath(delay_ps=0.0, jitter_sigma_ps=0.0),
        )
        assert reading.sigma_period_ps == pytest.approx(3.0, rel=0.05)


class TestDividerMeasurement:
    def test_recovers_true_sigma(self):
        trace = jittery_wave(sigma_ps=3.0, cycles=2**15, seed=2)
        reading = measure_period_jitter_divider(
            trace, divider=RippleDivider(bit_count=6, buffer_jitter_ps=0.0), seed=3
        )
        assert reading.sigma_period_ps == pytest.approx(3.0, rel=0.15)
        assert reading.hypothesis_ok

    def test_beats_direct_for_small_jitter(self):
        trace = jittery_wave(sigma_ps=2.0, cycles=2**15, seed=4)
        direct = measure_period_jitter_direct(trace, seed=5)
        divided = measure_period_jitter_divider(trace, seed=5)
        assert abs(divided.sigma_period_ps - 2.0) < abs(direct.sigma_period_ps - 2.0)

    def test_too_short_trace_raises(self):
        trace = jittery_wave(cycles=600)
        with pytest.raises(ValueError, match="divided periods"):
            measure_period_jitter_divider(trace, divider=RippleDivider(bit_count=7))

    def test_periods_per_measurement_reported(self):
        trace = jittery_wave(cycles=2**13, seed=6)
        reading = measure_period_jitter_divider(
            trace, divider=RippleDivider(bit_count=5), seed=6
        )
        assert reading.periods_per_measurement == 64

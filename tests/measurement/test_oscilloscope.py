"""Virtual oscilloscope."""

import numpy as np
import pytest

from repro.measurement.oscilloscope import Oscilloscope, OscilloscopeSpec
from repro.simulation.waveform import EdgeTrace


def square_wave(period_ps=3000.0, cycles=64):
    times = np.arange(2 * cycles) * (period_ps / 2.0) + 100.0
    return EdgeTrace(times)


class TestSpec:
    def test_effective_grid(self):
        spec = OscilloscopeSpec(sample_period_ps=25.0, interpolation_factor=5)
        assert spec.effective_grid_ps == pytest.approx(5.0)

    def test_timestamp_noise_combines(self):
        spec = OscilloscopeSpec(
            sample_period_ps=25.0, interpolation_factor=1, trigger_noise_ps=0.0
        )
        assert spec.timestamp_noise_ps == pytest.approx(25.0 / np.sqrt(12.0))

    def test_ideal_spec_is_quiet(self):
        assert OscilloscopeSpec.ideal().timestamp_noise_ps < 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_period_ps": 0.0},
            {"interpolation_factor": 0},
            {"trigger_noise_ps": -1.0},
            {"memory_edges": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OscilloscopeSpec(**kwargs)


class TestAcquisition:
    def test_ideal_scope_is_transparent(self):
        scope = Oscilloscope(OscilloscopeSpec.ideal(), seed=0)
        trace = square_wave()
        acquired = scope.acquire(trace)
        assert np.allclose(acquired.times_ps, trace.times_ps, atol=1e-3)

    def test_quantization_snaps_to_grid(self):
        spec = OscilloscopeSpec(sample_period_ps=10.0, interpolation_factor=1, trigger_noise_ps=0.0)
        scope = Oscilloscope(spec, seed=0)
        acquired = scope.acquire(square_wave())
        assert np.allclose(np.mod(acquired.times_ps, 10.0), 0.0)

    def test_direct_jitter_reading_inflated(self):
        """The paper's point: ps-level jitter cannot be read directly."""
        scope = Oscilloscope(OscilloscopeSpec(), seed=1)
        trace = square_wave(cycles=512)  # zero true jitter
        measured = scope.acquire(trace).period_jitter_ps()
        assert measured > 2.0  # reads several ps although the truth is 0

    def test_frequency_reading_accurate(self):
        scope = Oscilloscope(seed=2)
        trace = square_wave(period_ps=3125.0, cycles=256)
        assert scope.acquire(trace).mean_frequency_mhz() == pytest.approx(320.0, rel=1e-3)

    def test_memory_limit(self):
        scope = Oscilloscope(OscilloscopeSpec(memory_edges=10), seed=0)
        with pytest.raises(ValueError, match="memory"):
            scope.acquire(square_wave(cycles=64))

    def test_too_fast_signal_rejected(self):
        spec = OscilloscopeSpec(sample_period_ps=5000.0, interpolation_factor=1, trigger_noise_ps=0.0)
        scope = Oscilloscope(spec, seed=0)
        with pytest.raises(ValueError, match="too fast"):
            scope.acquire(square_wave(period_ps=3000.0))

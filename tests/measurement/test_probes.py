"""LVDS output path."""

import numpy as np
import pytest

from repro.measurement.probes import LvdsOutputPath
from repro.simulation.waveform import EdgeTrace


def square_wave(period_ps=3000.0, cycles=128):
    return EdgeTrace(np.arange(2 * cycles) * (period_ps / 2.0) + 10.0)


class TestLvdsOutputPath:
    def test_fixed_delay(self):
        path = LvdsOutputPath(delay_ps=800.0, jitter_sigma_ps=0.0)
        trace = square_wave()
        out = path.transport(trace)
        assert np.allclose(out.times_ps, trace.times_ps + 800.0)

    def test_jitter_added(self):
        path = LvdsOutputPath(delay_ps=0.0, jitter_sigma_ps=2.0)
        trace = square_wave()
        out = path.transport(trace, seed=0)
        deltas = out.times_ps - trace.times_ps
        assert np.std(deltas) == pytest.approx(2.0, rel=0.2)

    def test_delay_does_not_change_periods(self):
        path = LvdsOutputPath.lvds()
        trace = square_wave()
        out = path.transport(trace, seed=1)
        assert out.mean_period_ps() == pytest.approx(trace.mean_period_ps(), rel=1e-3)

    def test_standard_io_noisier_than_lvds(self):
        trace = square_wave(cycles=512)
        lvds_sigma = LvdsOutputPath.lvds().transport(trace, seed=2).period_jitter_ps()
        std_sigma = LvdsOutputPath(delay_ps=2500.0, jitter_sigma_ps=12.0).transport(trace, seed=2).period_jitter_ps()
        assert std_sigma > 3.0 * lvds_sigma

    def test_preserves_first_value(self):
        trace = EdgeTrace(np.arange(8) * 100.0 + 1.0, first_value=0)
        out = LvdsOutputPath(jitter_sigma_ps=0.0).transport(trace)
        assert out.first_value == 0

    @pytest.mark.parametrize("kwargs", [{"delay_ps": -1.0}, {"jitter_sigma_ps": -0.1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LvdsOutputPath(**kwargs)

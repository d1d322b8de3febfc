"""Edge traces and period extraction."""

import numpy as np
import pytest

from repro.simulation.events import Edge
from repro.simulation.waveform import (
    EdgeTrace,
    half_periods_from_edges,
    periods_from_edges,
)


def make_square_trace(period_ps=100.0, cycles=8, duty=0.5, first_value=1):
    """Edge times of a square wave with arbitrary duty cycle."""
    times = []
    t = 0.0
    for _ in range(cycles):
        times.append(t)
        times.append(t + duty * period_ps)
        t += period_ps
    return EdgeTrace(np.array(times) + 10.0, first_value=first_value)


class TestFreeFunctions:
    def test_half_periods(self):
        result = half_periods_from_edges(np.array([0.0, 40.0, 100.0, 140.0]))
        assert result == pytest.approx([40.0, 60.0, 40.0])

    def test_periods_polarity_zero(self):
        result = periods_from_edges(np.array([0.0, 40.0, 100.0, 140.0, 200.0]))
        assert result == pytest.approx([100.0, 100.0])

    def test_periods_polarity_one(self):
        result = periods_from_edges(np.array([0.0, 40.0, 100.0, 140.0, 200.0]), 1)
        assert result == pytest.approx([100.0])

    def test_bad_polarity_index(self):
        with pytest.raises(ValueError):
            periods_from_edges(np.array([0.0, 1.0]), 2)


class TestEdgeTrace:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            EdgeTrace([0.0, 5.0, 3.0])

    def test_rejects_bad_first_value(self):
        with pytest.raises(ValueError):
            EdgeTrace([0.0, 1.0], first_value=2)

    def test_from_edges(self):
        trace = EdgeTrace.from_edges(
            [Edge(1.0, 0, 1), Edge(2.0, 0, 0), Edge(3.0, 0, 1)]
        )
        assert len(trace) == 3
        assert trace.first_value == 1

    def test_from_empty(self):
        trace = EdgeTrace.from_edges([])
        assert len(trace) == 0

    def test_mean_period(self):
        trace = make_square_trace(period_ps=100.0, cycles=8)
        assert trace.mean_period_ps() == pytest.approx(100.0)

    def test_mean_frequency(self):
        trace = make_square_trace(period_ps=2000.0, cycles=8)
        assert trace.mean_frequency_mhz() == pytest.approx(500.0)

    def test_period_jitter_zero_for_clean_wave(self):
        trace = make_square_trace()
        assert trace.period_jitter_ps() == pytest.approx(0.0, abs=1e-9)

    def test_period_jitter_known_population(self):
        # Periods 90, 110, 90, 110 ... between even edges.
        times = np.cumsum([50.0] + [45.0, 45.0, 55.0, 55.0] * 4)
        trace = EdgeTrace(times)
        assert trace.periods_ps() == pytest.approx([90.0, 110.0] * 4)

    def test_period_insensitive_to_duty_cycle(self):
        asymmetric = make_square_trace(period_ps=100.0, duty=0.2)
        assert asymmetric.mean_period_ps() == pytest.approx(100.0)

    def test_duty_cycle(self):
        # The trailing half-period is open-ended and dropped, so the
        # estimate converges to the true duty cycle with more cycles.
        trace = make_square_trace(period_ps=100.0, duty=0.3, cycles=64)
        assert trace.duty_cycle() == pytest.approx(0.3, abs=0.01)

    def test_duty_cycle_inverted_start(self):
        trace = make_square_trace(period_ps=100.0, duty=0.3, cycles=64, first_value=0)
        assert trace.duty_cycle() == pytest.approx(0.7, abs=0.01)

    def test_skip_edges(self):
        trace = make_square_trace(cycles=8)
        shorter = trace.skip_edges(4)
        assert len(shorter) == len(trace) - 4
        assert shorter.first_value == trace.first_value

    def test_skip_edges_flips_first_value_for_odd(self):
        trace = make_square_trace(cycles=8, first_value=1)
        assert trace.skip_edges(3).first_value == 0

    def test_skip_zero_is_identity(self):
        trace = make_square_trace()
        assert trace.skip_edges(0) is trace

    def test_too_short_for_period(self):
        with pytest.raises(ValueError):
            EdgeTrace([1.0, 2.0]).mean_period_ps()

    def test_times_read_only(self):
        trace = make_square_trace()
        with pytest.raises(ValueError):
            trace.times_ps[0] = -1.0

    def test_half_periods_are_edge_to_edge(self):
        trace = make_square_trace(period_ps=100.0, cycles=4, duty=0.3)
        np.testing.assert_allclose(trace.half_periods_ps(), [30.0, 70.0] * 3 + [30.0])

    def test_two_half_periods_make_a_period(self):
        trace = make_square_trace(period_ps=100.0, cycles=6, duty=0.4)
        halves = trace.half_periods_ps()
        np.testing.assert_allclose(halves[0::2][:5] + halves[1::2][:5], trace.periods_ps())

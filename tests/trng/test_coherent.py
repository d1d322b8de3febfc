"""Coherent-sampling TRNG (counter-based, after [7])."""

import math

import numpy as np
import pytest

from repro.rings.iro import InverterRingOscillator
from repro.trng.coherent import CoherentSamplingTrng, beat_period_ps


def ring(period=3000.0, stages=5, sigma=2.0):
    return InverterRingOscillator([period / (2 * stages)] * stages, jitter_sigmas_ps=sigma)


class TestBeatPeriod:
    def test_formula(self):
        assert beat_period_ps(1000.0, 1010.0) == pytest.approx(1000.0 * 1010.0 / 10.0)

    def test_identical_periods_infinite(self):
        assert math.isinf(beat_period_ps(1000.0, 1000.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            beat_period_ps(0.0, 1000.0)


class TestDesignPoint:
    def test_detuning(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3015.0))
        point = trng.design_point()
        assert point.relative_detuning == pytest.approx(0.005)
        assert point.is_within_capture_band

    def test_out_of_band(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3300.0), max_relative_detuning=0.02)
        assert not trng.design_point().is_within_capture_band

    def test_expected_count(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        assert trng.design_point().expected_count == pytest.approx(150.0, rel=0.01)

    def test_count_sigma_grows_with_jitter(self):
        quiet = CoherentSamplingTrng(ring(3000.0, sigma=1.0), ring(3010.0, sigma=1.0))
        noisy = CoherentSamplingTrng(ring(3000.0, sigma=4.0), ring(3010.0, sigma=4.0))
        assert (
            noisy.design_point().predicted_count_sigma
            > 3.0 * quiet.design_point().predicted_count_sigma
        )

    def test_entropic_flag(self):
        good = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        assert good.design_point().predicted_count_sigma >= 1.0
        # Heavy detuning: short beat, little accumulated jitter.
        poor = CoherentSamplingTrng(
            ring(3000.0, sigma=0.2), ring(3050.0, sigma=0.2)
        )
        assert poor.design_point().predicted_count_sigma < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherentSamplingTrng(ring(), ring(), max_relative_detuning=0.0)

    def test_samples_per_beat(self):
        point = CoherentSamplingTrng(ring(3000.0), ring(3010.0)).design_point()
        # Beat period 3000 * 3010 / 10 ps, sampled every 3010 ps.
        assert point.samples_per_beat == pytest.approx(300.0)
        assert point.expected_count == pytest.approx(0.5 * point.samples_per_beat)

    def test_detuning_is_symmetric_in_the_pair(self):
        forward = CoherentSamplingTrng(ring(3000.0), ring(3015.0)).design_point()
        backward = CoherentSamplingTrng(ring(3015.0), ring(3000.0)).design_point()
        assert forward.relative_detuning == pytest.approx(backward.relative_detuning)

    def test_drift_to_diffusion_ratio(self):
        point = CoherentSamplingTrng(ring(3000.0), ring(3010.0)).design_point()
        assert point.drift_to_diffusion_ratio == pytest.approx(
            10.0 / math.hypot(point.jitter_a_ps, point.jitter_b_ps)
        )

    def test_jitter_fragments_a_slow_beat(self):
        quiet = CoherentSamplingTrng(ring(3000.0, sigma=1.0), ring(3010.0, sigma=1.0))
        noisy = CoherentSamplingTrng(ring(3000.0, sigma=4.0), ring(3010.0, sigma=4.0))
        assert quiet.design_point().is_drift_dominated
        assert not noisy.design_point().is_drift_dominated

    def test_jitter_free_pair_is_drift_dominated(self):
        point = CoherentSamplingTrng(ring(3000.0, sigma=0.0), ring(3010.0, sigma=0.0)).design_point()
        assert math.isinf(point.drift_to_diffusion_ratio)
        assert point.is_drift_dominated


class TestSignalChain:
    def test_beat_samples_are_binary_and_slow(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        samples = trng.beat_samples(2000, seed=0)
        assert set(np.unique(samples)) <= {0, 1}
        # The beat toggles far slower than the sampling clock.
        toggles = int(np.count_nonzero(np.diff(samples)))
        assert toggles < samples.size / 20

    def test_counter_mean_near_expected(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        counts = trng.counter_values(40_000, seed=1)
        expected = trng.design_point().expected_count
        assert np.mean(counts) == pytest.approx(expected, rel=0.25)

    def test_counter_wanders_with_jitter(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        stats = trng.measured_count_statistics(beat_count=200, seed=2)
        assert stats.sigma >= 1.0
        assert abs(stats.lsb_bias) < 0.15

    def test_out_of_band_pair_refuses(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3600.0), max_relative_detuning=0.02)
        with pytest.raises(ValueError, match="capture band"):
            trng.beat_samples(100, seed=0)


class TestGeneration:
    def test_generates_bits(self):
        trng = CoherentSamplingTrng(ring(3000.0, sigma=3.0), ring(3010.0, sigma=3.0))
        bits = trng.generate(64, seed=0)
        assert bits.shape == (64,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_bits_roughly_balanced(self):
        trng = CoherentSamplingTrng(ring(3000.0, sigma=3.0), ring(3010.0, sigma=3.0))
        bits = trng.generate(400, seed=1)
        assert 0.35 < np.mean(bits) < 0.65

    def test_bit_count_validation(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        with pytest.raises(ValueError):
            trng.generate(0)

    def test_deterministic(self):
        trng = CoherentSamplingTrng(ring(3000.0), ring(3010.0))
        assert np.array_equal(trng.generate(64, seed=7), trng.generate(64, seed=7))

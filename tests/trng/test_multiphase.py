"""Multi-phase STR TRNG."""

import math

import numpy as np
import pytest

from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.rings.str_ring import SelfTimedRing
from repro.trng.multiphase import (
    MultiphaseDesignPoint,
    MultiphaseModel,
    MultiphaseStrTrng,
    measure_diffusion_sigma_ps,
    reference_period_for_multiphase_q,
    validate_multiphase_configuration,
)


def make_ring(stages=21, tokens=10, static=250.0, charlie=120.0, sigma=2.0):
    diagram = CharlieDiagram(CharlieParameters.symmetric(static, charlie))
    return SelfTimedRing([diagram] * stages, tokens, jitter_sigmas_ps=sigma)


class TestValidation:
    def test_coprime_accepted(self):
        validate_multiphase_configuration(21, 10)
        validate_multiphase_configuration(63, 20)

    @pytest.mark.parametrize("stages,tokens", [(96, 48), (12, 4), (63, 30)])
    def test_common_divisor_rejected(self, stages, tokens):
        with pytest.raises(ValueError, match="gcd"):
            validate_multiphase_configuration(stages, tokens)


class TestDesignPoint:
    def test_geometry(self):
        point = MultiphaseDesignPoint(
            period_ps=2100.0,
            stage_count=21,
            reference_period_ps=50_000.0,
            diffusion_sigma_ps=1.0,
        )
        assert point.virtual_period_ps == pytest.approx(100.0)

    def test_virtual_periods_share_the_ring_diffusion(self):
        point = MultiphaseDesignPoint(
            period_ps=2100.0,
            stage_count=21,
            reference_period_ps=50_000.0,
            diffusion_sigma_ps=3.0,
        )
        assert point.virtual_jitter_ps == pytest.approx(3.0 / math.sqrt(21))
        # L virtual periods span one ring period and add up its variance.
        assert point.stage_count * point.virtual_jitter_ps**2 == pytest.approx(9.0)

    def test_q_factor_l_squared_gain(self):
        kwargs = dict(period_ps=2100.0, reference_period_ps=50_000.0, diffusion_sigma_ps=1.0)
        single = MultiphaseDesignPoint(stage_count=1 + 2, **kwargs)  # tiny L
        large = MultiphaseDesignPoint(stage_count=21, **kwargs)
        assert large.q_factor / single.q_factor == pytest.approx((21 / 3) ** 2)

    def test_reference_period_inversion(self):
        reference = reference_period_for_multiphase_q(2100.0, 21, 1.0, 0.25)
        point = MultiphaseDesignPoint(
            period_ps=2100.0,
            stage_count=21,
            reference_period_ps=reference,
            diffusion_sigma_ps=1.0,
        )
        assert point.q_factor == pytest.approx(0.25)

    def test_reference_validation(self):
        with pytest.raises(ValueError):
            reference_period_for_multiphase_q(2100.0, 21, 1.0, 0.0)
        with pytest.raises(ValueError):
            reference_period_for_multiphase_q(2100.0, 21, 0.0, 0.2)


class TestExactSampler:
    def test_bits_generated(self):
        ring = make_ring()
        trng = MultiphaseStrTrng(ring, reference_period_ps=8.0 * ring.predicted_period_ps())
        bits = trng.generate(64, seed=0, warmup_periods=64)
        assert bits.shape == (64,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_bits_toggle(self):
        ring = make_ring()
        trng = MultiphaseStrTrng(ring, reference_period_ps=7.3 * ring.predicted_period_ps())
        bits = trng.generate(128, seed=1, warmup_periods=64)
        assert 0.05 < np.mean(bits) < 0.95

    def test_rejects_balanced_ring(self):
        with pytest.raises(ValueError, match="gcd"):
            MultiphaseStrTrng(make_ring(20, 10), reference_period_ps=1e5)

    def test_rejects_fast_reference(self):
        ring = make_ring()
        with pytest.raises(ValueError, match="reference period"):
            MultiphaseStrTrng(ring, reference_period_ps=0.5 * ring.predicted_period_ps())

    def test_deterministic(self):
        ring = make_ring()
        trng = MultiphaseStrTrng(ring, reference_period_ps=6.0 * ring.predicted_period_ps())
        assert np.array_equal(
            trng.generate(48, seed=5, warmup_periods=32),
            trng.generate(48, seed=5, warmup_periods=32),
        )


class TestFastModel:
    def test_from_ring(self):
        ring = make_ring()
        model = MultiphaseModel.from_ring(
            ring, 50_000.0, diffusion_sigma_ps=1.0
        )
        assert model.stage_count == 21
        assert model.period_ps == pytest.approx(ring.predicted_period_ps())

    def test_high_q_bits_are_fair(self):
        reference = reference_period_for_multiphase_q(2100.0, 21, 1.0, 0.3)
        model = MultiphaseModel(2100.0, 21, 1.0, reference)
        bits = model.generate(20_000, seed=2)
        assert abs(np.mean(bits) - 0.5) < 0.02

    def test_battery_at_good_q(self):
        from repro.stats.randomness import run_battery

        reference = reference_period_for_multiphase_q(2100.0, 21, 1.0, 0.3)
        model = MultiphaseModel(2100.0, 21, 1.0, reference)
        assert run_battery(model.generate(30_000, seed=3)).all_passed

    def test_zero_diffusion_is_periodic(self):
        model = MultiphaseModel(2100.0, 21, 0.0, 50_000.0)
        bits = model.generate(256, seed=4)
        again = model.generate(256, seed=4)
        assert np.array_equal(bits, again)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_ps": 0.0},
            {"stage_count": 2},
            {"diffusion_sigma_ps": -1.0},
            {"reference_period_ps": 100.0},
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(
            period_ps=2100.0, stage_count=21, diffusion_sigma_ps=1.0, reference_period_ps=50_000.0
        )
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            MultiphaseModel(**defaults)


class TestDiffusionMeasurement:
    def test_below_period_sigma(self):
        ring = make_ring(sigma=2.0)
        diffusion = measure_diffusion_sigma_ps(ring, period_count=1024, seed=0)
        period_sigma = ring.simulate(1024, seed=0).trace.period_jitter_ps()
        assert 0.0 < diffusion < period_sigma


class TestCombGeometry:
    def test_noise_free_comb_uniform(self):
        """gcd(L,NT)=1 homogeneous ring: exactly one spacing value."""
        ring = make_ring(sigma=0.0)
        result = ring.simulate_phases(16, seed=0, warmup_periods=1024)
        spacings = result.merged_spacings_ps()
        expected = ring.predicted_period_ps() / (2 * ring.stage_count)
        assert np.std(spacings) < 0.01 * expected
        assert np.mean(spacings) == pytest.approx(expected, rel=0.02)

    def test_balanced_comb_degenerate(self):
        """gcd(L,NT)=NT/...: toggles coincide, comb collapses."""
        ring = make_ring(20, 10, sigma=0.0)
        result = ring.simulate_phases(16, seed=0, warmup_periods=256)
        spacings = result.merged_spacings_ps()
        # Bursts of simultaneous toggles: median spacing ~ 0.
        assert np.median(spacings) < 0.05 * np.mean(spacings)

    def test_phase_result_accessors(self):
        ring = make_ring(sigma=1.0)
        result = ring.simulate_phases(8, seed=0, warmup_periods=16)
        assert result.stage_count == 21
        assert len(result.merged_spacings_ps()) == len(result.merged_edge_times_ps) - 1
        for trace in result.stage_traces:
            assert len(trace) > 0

"""Noise sources and deterministic modulations."""

import numpy as np
import pytest

from repro.simulation import noise


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = noise.make_rng(42).normal(size=5)
        b = noise.make_rng(42).normal(size=5)
        assert np.allclose(a, b)

    def test_passes_generator_through(self):
        rng = np.random.default_rng(1)
        assert noise.make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(noise.make_rng(None), np.random.Generator)


class TestGaussianJitter:
    def test_statistics(self):
        source = noise.GaussianJitter(2.0, seed=0)
        samples = source.sample_array(200_000)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.02)
        assert np.std(samples) == pytest.approx(2.0, rel=0.02)

    def test_scalar_and_array_paths_share_stream(self):
        source = noise.GaussianJitter(1.0, seed=3)
        first = source.sample()
        assert isinstance(first, float)

    def test_zero_sigma_is_silent(self):
        source = noise.GaussianJitter(0.0, seed=0)
        assert source.sample() == 0.0
        assert np.all(source.sample_array(10) == 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            noise.GaussianJitter(-1.0)

    def test_sigma_property(self):
        assert noise.GaussianJitter(2.5).sigma_ps == 2.5


class TestNoNoise:
    def test_always_zero(self):
        source = noise.NoNoise()
        assert source.sample() == 0.0
        assert np.all(source.sample_array(7) == 0.0)
        assert source.sigma_ps == 0.0


class TestModulations:
    def test_constant(self):
        modulation = noise.ConstantModulation(0.05)
        assert modulation.factor(123.0) == 0.05
        assert np.all(modulation.factor_array(np.arange(5.0)) == 0.05)

    def test_sinusoidal_extremes(self):
        modulation = noise.SinusoidalModulation(amplitude=0.1, period_ps=100.0)
        assert modulation.factor(25.0) == pytest.approx(0.1)
        assert modulation.factor(75.0) == pytest.approx(-0.1)
        assert modulation.factor(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_sinusoidal_array_matches_scalar(self):
        modulation = noise.SinusoidalModulation(amplitude=0.2, period_ps=37.0, phase_rad=0.4)
        times = np.linspace(0.0, 100.0, 13)
        expected = [modulation.factor(float(t)) for t in times]
        assert np.allclose(modulation.factor_array(times), expected)

    def test_sinusoidal_rejects_bad_period(self):
        with pytest.raises(ValueError):
            noise.SinusoidalModulation(0.1, 0.0)

    def test_step(self):
        modulation = noise.StepModulation(step_time_ps=50.0, factor_after=0.2)
        assert modulation.factor(49.9) == 0.0
        assert modulation.factor(50.0) == 0.2
        array = modulation.factor_array(np.array([0.0, 50.0, 100.0]))
        assert np.allclose(array, [0.0, 0.2, 0.2])

    def test_ramp(self):
        modulation = noise.RampModulation(slope_per_ps=1e-3, start_time_ps=10.0)
        assert modulation.factor(5.0) == 0.0
        assert modulation.factor(20.0) == pytest.approx(0.01)
        array = modulation.factor_array(np.array([0.0, 10.0, 30.0]))
        assert np.allclose(array, [0.0, 0.0, 0.02])

    def test_composite_sums(self):
        composite = noise.CompositeModulation(
            [noise.ConstantModulation(0.1), noise.RampModulation(1e-3)]
        )
        assert composite.factor(100.0) == pytest.approx(0.2)
        assert np.allclose(
            composite.factor_array(np.array([0.0, 100.0])), [0.1, 0.2]
        )


@pytest.mark.parametrize(
    "modulation",
    [
        noise.ConstantModulation(0.05),
        noise.SinusoidalModulation(amplitude=0.02, period_ps=3.7e3, phase_rad=0.9),
        noise.StepModulation(step_time_ps=4.1e3, factor_after=0.03, factor_before=-0.01),
        noise.RampModulation(slope_per_ps=2e-6, start_time_ps=-2.5e3),
        noise.CompositeModulation(
            [
                noise.SinusoidalModulation(amplitude=0.01, period_ps=1.3e3),
                noise.RampModulation(slope_per_ps=1e-6, start_time_ps=5e3),
                noise.StepModulation(step_time_ps=7e3, factor_after=0.02),
            ]
        ),
    ],
    ids=lambda modulation: type(modulation).__name__,
)
def test_integral_matches_quadrature_of_factor(modulation):
    """``integral_array`` is the exact integral of ``factor_array`` from 0.

    The tolerance is the trapezoid's own error across a step (jump x grid
    spacing); the closed forms themselves are exact.
    """
    grid = np.linspace(0.0, 1e4, 1_000_001)
    factors = modulation.factor_array(grid)
    quadrature = np.concatenate(
        [[0.0], np.cumsum(0.5 * (factors[1:] + factors[:-1]) * np.diff(grid))]
    )
    probes = np.array([0, 1, 250_000, 333_333, 410_000, 700_001, 1_000_000])
    np.testing.assert_allclose(
        modulation.integral_array(grid[probes]), quadrature[probes], rtol=0.0, atol=1e-3
    )

"""Randomness test battery."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.stats.randomness import (
    autocorrelation_test,
    block_frequency_test,
    cumulative_sums_test,
    longest_run_test,
    monobit_test,
    run_battery,
    runs_test,
)
from repro.stats.randomness import TestResult as OutcomeRecord


@pytest.fixture(scope="module")
def good_bits():
    return np.random.default_rng(42).integers(0, 2, size=60_000)


@pytest.fixture(scope="module")
def biased_bits():
    return (np.random.default_rng(43).random(60_000) < 0.58).astype(int)


@pytest.fixture(scope="module")
def periodic_bits():
    return np.tile([0, 1, 1, 0], 15_000)


class TestResultFromPValue:
    def test_p_value_at_alpha_passes(self):
        assert OutcomeRecord.from_p_value("monobit", 0.01, 1.2, alpha=0.01).passed

    def test_p_value_below_alpha_fails(self):
        assert not OutcomeRecord.from_p_value("monobit", 0.0099, 1.2, alpha=0.01).passed

    def test_numpy_values_become_plain_floats(self):
        result = OutcomeRecord.from_p_value("runs", np.float64(0.5), np.float32(2.0), alpha=0.01)
        assert type(result.p_value) is float and type(result.statistic) is float
        assert type(result.passed) is bool


class TestIndividualTests:
    def test_monobit_passes_good(self, good_bits):
        assert monobit_test(good_bits).passed

    def test_monobit_fails_biased(self, biased_bits):
        assert not monobit_test(biased_bits).passed

    def test_block_frequency_passes_good(self, good_bits):
        assert block_frequency_test(good_bits).passed

    def test_block_frequency_fails_blocky(self):
        bits = np.concatenate([np.zeros(30_000, dtype=int), np.ones(30_000, dtype=int)])
        assert not block_frequency_test(bits).passed

    def test_runs_passes_good(self, good_bits):
        assert runs_test(good_bits).passed

    def test_runs_fails_alternating(self):
        assert not runs_test(np.tile([0, 1], 30_000)).passed

    def test_longest_run_passes_good(self, good_bits):
        assert longest_run_test(good_bits).passed

    def test_longest_run_fails_clumped(self):
        rng = np.random.default_rng(7)
        # Runs twice as long as chance would produce.
        bits = np.repeat(rng.integers(0, 2, size=30_000), 2)
        assert not longest_run_test(bits).passed

    def test_autocorrelation_passes_good(self, good_bits):
        assert autocorrelation_test(good_bits, lag=1).passed
        assert autocorrelation_test(good_bits, lag=5).passed

    def test_autocorrelation_fails_periodic(self, periodic_bits):
        assert not autocorrelation_test(periodic_bits, lag=4).passed

    def test_autocorrelation_lag_validation(self, good_bits):
        with pytest.raises(ValueError):
            autocorrelation_test(good_bits, lag=0)

    def test_cusum_passes_good(self, good_bits):
        assert cumulative_sums_test(good_bits).passed

    def test_cusum_fails_drifting(self):
        rng = np.random.default_rng(8)
        drift = (rng.random(50_000) < np.linspace(0.4, 0.6, 50_000)).astype(int)
        assert not cumulative_sums_test(drift).passed

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            monobit_test(np.ones(50, dtype=int))


def _cusum_p_value_with_norm_cdf(bits):
    """The cumulative-sums p-value summed with ``scipy.stats.norm.cdf``."""
    partial = np.cumsum(2 * np.asarray(bits) - 1)
    z = float(np.max(np.abs(partial)))
    n = len(bits)
    total = 0.0
    sqrt_n = math.sqrt(n)
    end_one = int(math.floor((n / z - 1.0) / 4.0))
    for k in range(int(math.floor((-n / z + 1.0) / 4.0)), end_one + 1):
        total += stats.norm.cdf((4 * k + 1) * z / sqrt_n)
        total -= stats.norm.cdf((4 * k - 1) * z / sqrt_n)
    for k in range(int(math.floor((-n / z - 3.0) / 4.0)), end_one + 1):
        total -= stats.norm.cdf((4 * k + 3) * z / sqrt_n)
        total += stats.norm.cdf((4 * k + 1) * z / sqrt_n)
    return min(max(1.0 - total, 0.0), 1.0)


@pytest.mark.parametrize("size,threshold", [(100, 0.5), (1000, 0.5), (60_000, 0.5), (4096, 0.52)])
def test_cumulative_sums_equals_the_norm_cdf_sum(size, threshold):
    """``ndtr`` is the function ``norm.cdf`` evaluates: same p-value, bit for bit."""
    for seed in range(5):
        bits = (np.random.default_rng(seed).random(size) < threshold).astype(int)
        assert cumulative_sums_test(bits).p_value == _cusum_p_value_with_norm_cdf(bits)


class TestBattery:
    def test_good_bits_pass_battery(self, good_bits):
        report = run_battery(good_bits)
        assert report.all_passed, report.failed_tests

    def test_biased_bits_fail_battery(self, biased_bits):
        report = run_battery(biased_bits)
        assert not report.all_passed
        assert "monobit" in report.failed_tests

    def test_summary_text(self, good_bits):
        text = run_battery(good_bits).summary()
        assert "monobit" in text and "PASS" in text

    def test_battery_has_all_tests(self, good_bits):
        report = run_battery(good_bits)
        assert set(report.results) >= {
            "monobit",
            "block_frequency",
            "runs",
            "longest_run",
            "autocorrelation_lag1",
            "cumulative_sums",
        }


class TestSerialTest:
    def test_passes_good(self, good_bits):
        from repro.stats.randomness import serial_test

        assert serial_test(good_bits).passed

    def test_fails_patterned(self):
        from repro.stats.randomness import serial_test

        patterned = np.tile([0, 1, 1, 0, 1, 0, 0, 1], 7500)
        assert not serial_test(patterned).passed

    def test_catches_balanced_markov_chain(self):
        from repro.stats.randomness import serial_test

        rng = np.random.default_rng(9)
        bits = [0]
        for _ in range(40_000):
            bits.append(bits[-1] if rng.random() < 0.7 else 1 - bits[-1])
        assert not serial_test(np.asarray(bits)).passed

    def test_length_validation(self, good_bits):
        from repro.stats.randomness import serial_test

        with pytest.raises(ValueError):
            serial_test(good_bits, pattern_length=1)


class TestApproximateEntropy:
    def test_passes_good(self, good_bits):
        from repro.stats.randomness import approximate_entropy_test

        assert approximate_entropy_test(good_bits).passed

    def test_fails_periodic(self, periodic_bits):
        from repro.stats.randomness import approximate_entropy_test

        assert not approximate_entropy_test(periodic_bits).passed

    def test_length_validation(self, good_bits):
        from repro.stats.randomness import approximate_entropy_test

        with pytest.raises(ValueError):
            approximate_entropy_test(good_bits, pattern_length=0)


class TestDftSpectral:
    def test_passes_good(self, good_bits):
        from repro.stats.randomness import dft_spectral_test

        assert dft_spectral_test(good_bits).passed

    def test_fails_periodic(self, periodic_bits):
        from repro.stats.randomness import dft_spectral_test

        assert not dft_spectral_test(periodic_bits).passed

    def test_minimum_length(self):
        from repro.stats.randomness import dft_spectral_test

        with pytest.raises(ValueError):
            dft_spectral_test(np.ones(100, dtype=int))


class TestExtendedBattery:
    def test_battery_includes_new_tests(self, good_bits):
        report = run_battery(good_bits)
        assert {"serial_m3", "approximate_entropy_m2", "dft_spectral"} <= set(
            report.results
        )

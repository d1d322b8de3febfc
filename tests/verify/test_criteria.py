"""Statistical criteria: decisions, degenerate inputs, validation."""

import math

import numpy as np
import pytest
from scipy import special, stats

from repro.verify.criteria import (
    ci_lower_bound,
    ci_overlap,
    ci_upper_bound,
    mean_confidence_interval,
    tost,
    wilson_interval,
)


class TestMeanConfidenceInterval:
    def test_brackets_the_true_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 1.0, size=200)
        mean, low, high = mean_confidence_interval(samples)
        assert low < 5.0 < high
        assert low < mean < high

    def test_single_sample_collapses_to_point(self):
        assert mean_confidence_interval([3.5]) == (3.5, 3.5, 3.5)

    def test_zero_variance_collapses_to_point(self):
        assert mean_confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0)

    def test_narrows_with_sample_count(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.0, 1.0, size=400)
        _, low_small, high_small = mean_confidence_interval(samples[:20])
        _, low_large, high_large = mean_confidence_interval(samples)
        assert high_large - low_large < high_small - low_small

    def test_rejects_empty_and_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.0)


class TestTost:
    def test_tight_sample_at_target_is_equivalent(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(2.0, 0.05, size=30)
        result = tost(samples, target=2.0, margin=0.2)
        assert result.passed
        assert result.p_lower < 0.05 and result.p_upper < 0.05

    def test_shifted_sample_is_not_equivalent(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(3.0, 0.05, size=30)
        result = tost(samples, target=2.0, margin=0.2)
        assert not result.passed

    def test_wide_scatter_blocks_equivalence_even_on_target(self):
        # The whole point of TOST: an uninformative sample can't prove
        # equivalence no matter where its mean lands.
        rng = np.random.default_rng(4)
        samples = rng.normal(2.0, 5.0, size=5)
        assert not tost(samples, target=2.0, margin=0.2).passed

    def test_degenerate_zero_variance_point_decision(self):
        assert tost([2.1, 2.1], target=2.0, margin=0.2).passed
        assert not tost([2.5, 2.5], target=2.0, margin=0.2).passed

    def test_describe_mentions_verdict(self):
        assert "equivalent" in tost([2.0, 2.0], target=2.0, margin=0.1).describe()

    def test_rejects_bad_margin_and_alpha(self):
        with pytest.raises(ValueError):
            tost([1.0, 2.0], target=1.5, margin=0.0)
        with pytest.raises(ValueError):
            tost([1.0, 2.0], target=1.5, margin=0.5, alpha=0.9)


class TestCiOverlap:
    def test_overlapping_band_passes(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(3.0, 0.2, size=20)
        result = ci_overlap(samples, 2.0, 4.0)
        assert result.passed

    def test_disjoint_band_fails(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(10.0, 0.2, size=20)
        assert not ci_overlap(samples, 2.0, 4.0).passed

    def test_partial_overlap_counts(self):
        # CI straddling the band edge still overlaps.
        result = ci_overlap([3.9, 4.1, 4.0, 4.2], 2.0, 4.0)
        assert result.passed

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            ci_overlap([1.0], 4.0, 2.0)


class TestOneSidedBounds:
    def test_upper_bound_holds_for_small_sample_means(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0.5, 0.05, size=25)
        result = ci_upper_bound(samples, 0.85)
        assert result.passed
        assert result.confidence_limit > result.mean  # one-sided widening

    def test_upper_bound_fails_near_the_bound_with_scatter(self):
        samples = [0.7, 0.95, 1.1, 0.6, 0.9]  # mean 0.85, wide scatter
        assert not ci_upper_bound(samples, 0.85).passed

    def test_lower_bound_mirrors_upper(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(5.0, 0.1, size=25)
        assert ci_lower_bound(samples, 4.0).passed
        assert not ci_lower_bound(samples, 6.0).passed

    def test_single_sample_degrades_to_point_comparison(self):
        assert ci_upper_bound([0.5], 0.85).passed
        assert not ci_upper_bound([0.9], 0.85).passed


class TestWilsonInterval:
    def test_contains_the_observed_proportion(self):
        low, high = wilson_interval(7, 10)
        assert low < 0.7 < high

    def test_all_passes_keeps_an_honest_upper_tail(self):
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0)
        assert 0.6 < low < 1.0  # 10/10 does not prove certainty

    def test_all_failures_symmetric(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert 0.0 < high < 0.4

    def test_narrows_with_trials(self):
        low_small, high_small = wilson_interval(5, 10)
        low_large, high_large = wilson_interval(500, 1000)
        assert high_large - low_large < high_small - low_small

    def test_stays_in_unit_interval(self):
        for successes, trials in [(0, 1), (1, 1), (1, 2), (99, 100)]:
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= high <= 1.0

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_matches_normal_approximation_for_large_n(self):
        low, high = wilson_interval(500, 1000)
        approx_half = 1.959964 * math.sqrt(0.25 / 1000)
        assert abs((high - low) / 2 - approx_half) < 1e-3


class TestScipySpecialEqualsStats:
    """The criteria call the ``scipy.special`` functions behind
    ``scipy.stats.t`` and ``scipy.stats.norm``; the values are the same."""

    DFS = (1, 2, 3, 4, 7, 19, 99, 999)
    QS = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.9995)
    XS = tuple(np.linspace(-8.0, 8.0, 161)) + (-40.0, 1e-9, 40.0)

    def test_t_quantile(self):
        for df in self.DFS:
            for q in self.QS:
                assert special.stdtrit(df, q) == stats.t.ppf(q, df=df)

    def test_t_tails(self):
        for df in self.DFS:
            for x in self.XS:
                assert special.stdtr(df, -x) == stats.t.sf(x, df=df)
                assert special.stdtr(df, x) == stats.t.cdf(x, df=df)

    def test_normal_quantile(self):
        for q in self.QS + (0.6827, 0.999999):
            assert special.ndtri(q) == stats.norm.ppf(q)

    @pytest.mark.parametrize("n", [2, 3, 8, 30, 200])
    def test_criteria_equal_the_scipy_stats_formulas(self, n):
        samples = np.random.default_rng(n).normal(1.0, 0.3, size=n)
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(n))
        for confidence in (0.8, 0.9, 0.95, 0.99):
            half = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)) * se
            assert mean_confidence_interval(samples, confidence) == (mean, mean - half, mean + half)
            half = float(stats.t.ppf(confidence, df=n - 1)) * se
            assert ci_upper_bound(samples, 2.0, confidence).confidence_limit == mean + half
            assert ci_lower_bound(samples, 0.0, confidence).confidence_limit == mean - half
            z = float(stats.norm.ppf(0.5 + confidence / 2.0))
            p = (n // 3) / n
            denom = 1.0 + z * z / n
            centre = (p + z * z / (2.0 * n)) / denom
            spread = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
            assert wilson_interval(n // 3, n, confidence) == (
                max(0.0, centre - spread),
                min(1.0, centre + spread),
            )
        for target, margin in ((1.0, 0.1), (1.2, 0.5), (0.0, 2.0)):
            result = tost(samples, target, margin)
            t_lower = (mean - (target - margin)) / se
            t_upper = (mean - (target + margin)) / se
            assert result.p_lower == float(stats.t.sf(t_lower, df=n - 1))
            assert result.p_upper == float(stats.t.cdf(t_upper, df=n - 1))

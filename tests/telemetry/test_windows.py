"""Ring-buffer snapshot windows: rates, deltas, windowed quantiles."""

import pytest

from repro.telemetry import MetricsSnapshot, SnapshotWindow

EDGES = [0.01, 0.1, 1.0]


def snap(counters=None, gauges=None, counts=None, total=0.0):
    histograms = {}
    if counts is not None:
        histograms["lat"] = {
            "edges": list(EDGES),
            "counts": list(counts),
            "sum": total,
            "count": sum(counts),
        }
    return MetricsSnapshot(
        counters=counters or {}, gauges=gauges or {}, histograms=histograms
    )


class TestConstruction:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            SnapshotWindow(horizon_s=0.0)

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError, match="two samples"):
            SnapshotWindow(max_samples=1)

    def test_empty_window_has_no_latest(self):
        window = SnapshotWindow()
        assert len(window) == 0
        assert window.latest is None
        assert window.gauge("g") is None


class TestPush:
    def test_rejects_out_of_order_push(self):
        window = SnapshotWindow()
        window.push(snap(), 5.0)
        with pytest.raises(ValueError, match="older than the newest"):
            window.push(snap(), 4.0)

    def test_equal_timestamps_allowed(self):
        # Two ticks in the same scheduler quantum must not crash the
        # publisher; rates over the zero span simply report 0.
        window = SnapshotWindow()
        window.push(snap(counters={"c": 1}), 1.0)
        window.push(snap(counters={"c": 5}), 1.0)
        assert window.rate("c", 10.0) == 0.0

    def test_max_samples_bounds_the_buffer(self):
        window = SnapshotWindow(horizon_s=1000.0, max_samples=4)
        for t in range(10):
            window.push(snap(), float(t))
        assert len(window) == 4

    def test_horizon_eviction_keeps_one_baseline_sample(self):
        window = SnapshotWindow(horizon_s=10.0)
        for t in range(25):
            window.push(snap(counters={"c": t}), float(t))
        # Samples older than the horizon are evicted, but the sample at
        # the cutoff survives so a full-horizon query has a baseline.
        assert len(window) == 11
        assert window.covered_s(10.0) == pytest.approx(10.0)


class TestCounterFigures:
    def test_delta_and_rate_over_window(self):
        window = SnapshotWindow()
        window.push(snap(counters={"bytes": 100}), 0.0)
        window.push(snap(counters={"bytes": 300}), 5.0)
        window.push(snap(counters={"bytes": 700}), 10.0)
        assert window.counter_delta("bytes", 10.0) == 600
        assert window.rate("bytes", 10.0) == pytest.approx(60.0)
        # A narrower window differences against a newer baseline.
        assert window.counter_delta("bytes", 5.0) == 400
        assert window.rate("bytes", 5.0) == pytest.approx(80.0)

    def test_single_sample_has_no_rate(self):
        window = SnapshotWindow()
        window.push(snap(counters={"bytes": 100}), 0.0)
        assert window.counter_delta("bytes", 10.0) == 0
        assert window.rate("bytes", 10.0) == 0.0

    def test_registry_reset_clamps_to_zero(self):
        # A counter that shrinks means the registry restarted; a
        # negative rate would be nonsense.
        window = SnapshotWindow()
        window.push(snap(counters={"bytes": 900}), 0.0)
        window.push(snap(counters={"bytes": 10}), 5.0)
        assert window.counter_delta("bytes", 10.0) == 0
        assert window.rate("bytes", 10.0) == 0.0

    def test_missing_counter_counts_as_zero(self):
        window = SnapshotWindow()
        window.push(snap(), 0.0)
        window.push(snap(counters={"bytes": 64}), 2.0)
        assert window.counter_delta("bytes", 10.0) == 64

    def test_zero_window_rejected(self):
        window = SnapshotWindow()
        window.push(snap(), 0.0)
        window.push(snap(), 1.0)
        with pytest.raises(ValueError, match="window"):
            window.counter_delta("c", 0.0)

    def test_gauge_reads_newest_sample(self):
        window = SnapshotWindow()
        window.push(snap(gauges={"depth": 3.0}), 0.0)
        window.push(snap(gauges={"depth": 7.0}), 1.0)
        assert window.gauge("depth") == 7.0
        assert window.gauge("missing") is None


class TestHistogramFigures:
    def test_delta_differences_buckets_and_totals(self):
        window = SnapshotWindow()
        window.push(snap(counts=[1, 2, 0, 0], total=0.5), 0.0)
        window.push(snap(counts=[3, 6, 1, 0], total=2.0), 10.0)
        delta = window.histogram_delta("lat", 30.0)
        assert delta.edges == tuple(EDGES)
        assert delta.counts == (2, 4, 1, 0)
        assert delta.sum == pytest.approx(1.5)
        assert delta.count == 7
        assert window.histogram_rate("lat", 30.0) == pytest.approx(0.7)

    def test_histogram_absent_from_baseline_uses_raw_totals(self):
        window = SnapshotWindow()
        window.push(snap(), 0.0)
        window.push(snap(counts=[1, 1, 0, 0], total=0.1), 5.0)
        delta = window.histogram_delta("lat", 30.0)
        assert delta.count == 2

    def test_missing_histogram_is_none(self):
        window = SnapshotWindow()
        window.push(snap(), 0.0)
        window.push(snap(), 1.0)
        assert window.histogram_delta("lat", 30.0) is None
        assert window.histogram_quantile("lat", 0.99, 30.0) is None
        assert window.histogram_rate("lat", 30.0) == 0.0

    def test_quantile_interpolates_inside_bucket(self):
        window = SnapshotWindow()
        window.push(snap(counts=[0, 0, 0, 0]), 0.0)
        # 10 observations in (0.01, 0.1]: the median sits at the linear
        # midpoint of that bucket.
        window.push(snap(counts=[0, 10, 0, 0], total=0.5), 10.0)
        median = window.histogram_quantile("lat", 0.5, 30.0)
        assert median == pytest.approx(0.01 + 0.5 * (0.1 - 0.01))

    def test_quantile_in_overflow_bucket_reports_last_edge(self):
        window = SnapshotWindow()
        window.push(snap(counts=[0, 0, 0, 0]), 0.0)
        window.push(snap(counts=[1, 0, 0, 9], total=20.0), 10.0)
        assert window.histogram_quantile("lat", 0.99, 30.0) == EDGES[-1]

    def test_quantile_none_when_window_saw_nothing(self):
        window = SnapshotWindow()
        window.push(snap(counts=[4, 4, 0, 0], total=0.2), 0.0)
        window.push(snap(counts=[4, 4, 0, 0], total=0.2), 10.0)
        assert window.histogram_quantile("lat", 0.99, 30.0) is None

    def test_quantile_range_validated(self):
        window = SnapshotWindow()
        window.push(snap(counts=[1, 0, 0, 0]), 0.0)
        window.push(snap(counts=[2, 0, 0, 0]), 1.0)
        with pytest.raises(ValueError, match="quantile"):
            window.histogram_quantile("lat", 1.5, 30.0)

"""Online drift detection: EWMA/CUSUM charts and the channel monitor.

The headline acceptance test at the bottom pins the ISSUE criterion:
on a deterministic slow bias ramp the charts must flag the channel at
least one full AIS-31 health window (512 bits) before the adaptive
proportion test would quarantine it.
"""

import math

import numpy as np
import pytest

from repro.obs.drift import (
    DEFAULT_STATISTICS,
    ChannelDriftMonitor,
    CusumDetector,
    EwmaDetector,
    block_statistics,
)
from repro.telemetry import MemorySink, default_registry, use_sink
from repro.trng.health import HealthMonitor

BLOCK_BITS = 512


def ramp_blocks(
    seed=1234, warm_blocks=60, ramp_blocks_n=340, p_start=0.5, p_end=0.68
):
    """Deterministic degradation: clean warmup, then a slow bias ramp."""
    rng = np.random.default_rng(seed)
    for index in range(warm_blocks + ramp_blocks_n):
        if index < warm_blocks:
            p = p_start
        else:
            fraction = (index - warm_blocks + 1) / ramp_blocks_n
            p = p_start + fraction * (p_end - p_start)
        yield (rng.random(BLOCK_BITS) < p).astype(np.uint8)


def clean_blocks(seed, count, p=0.5):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.random(BLOCK_BITS) < p).astype(np.uint8)


class TestBlockStatistics:
    def test_unbiased_block_statistics(self):
        bits = np.array([0, 1] * 32)
        stats = block_statistics(bits)
        assert stats["bias"] == pytest.approx(0.0)
        assert stats["shannon_entropy"] == pytest.approx(1.0)
        assert stats["min_entropy"] == pytest.approx(1.0)
        assert stats["alarm_rate"] == 0.0

    def test_biased_block_statistics(self):
        bits = np.array([1] * 3 + [0] * 1)
        stats = block_statistics(bits, alarm_count=2)
        assert stats["bias"] == pytest.approx(0.25)
        assert stats["min_entropy"] == pytest.approx(-math.log2(0.75))
        assert stats["alarm_rate"] == pytest.approx(0.5)

    def test_constant_block_has_zero_entropy(self):
        stats = block_statistics(np.ones(16))
        assert stats["shannon_entropy"] == 0.0
        assert stats["min_entropy"] == 0.0

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(ValueError):
            block_statistics(np.array([]))
        with pytest.raises(ValueError):
            block_statistics(np.zeros((4, 4)))


class TestEwmaDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaDetector(alpha=0.0)
        with pytest.raises(ValueError, match="threshold"):
            EwmaDetector(threshold_sigma=0.0)
        with pytest.raises(ValueError, match="warmup"):
            EwmaDetector(warmup=1)
        with pytest.raises(ValueError, match="min std"):
            EwmaDetector(min_std=0.0)

    def test_not_armed_during_warmup(self):
        detector = EwmaDetector(warmup=8)
        for _ in range(7):
            detector.update(0.5)
            assert not detector.armed
            assert not detector.drifted
        detector.update(0.5)
        assert detector.armed

    def test_sustained_shift_raises_score(self):
        rng = np.random.default_rng(7)
        detector = EwmaDetector(alpha=0.2, threshold_sigma=4.0, warmup=32)
        for _ in range(32):
            detector.update(rng.normal(0.0, 1.0))
        assert not detector.drifted
        for _ in range(40):
            detector.update(rng.normal(3.0, 1.0))
        assert detector.drifted
        assert detector.score >= detector.threshold

    def test_reset_forgets_chart_and_baseline(self):
        detector = EwmaDetector(warmup=4)
        for value in (1.0, 2.0, 1.5, 1.2, 9.0):
            detector.update(value)
        detector.reset()
        assert not detector.armed
        assert detector.ewma is None
        assert detector.score == 0.0


class TestCusumDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="allowance"):
            CusumDetector(k_sigma=-0.1)
        with pytest.raises(ValueError, match="decision interval"):
            CusumDetector(h_sigma=0.0)

    def test_slow_ramp_accumulates_to_alarm(self):
        # A drift of ~1 sigma per step barely moves an EWMA threshold
        # but a CUSUM integrates it linearly.
        rng = np.random.default_rng(11)
        detector = CusumDetector(k_sigma=0.5, h_sigma=8.0, warmup=32)
        for _ in range(32):
            detector.update(rng.normal(0.0, 1.0))
        for step in range(60):
            detector.update(rng.normal(0.03 * step, 1.0))
            if detector.drifted:
                break
        assert detector.drifted

    def test_two_sided_detects_downward_shift(self):
        rng = np.random.default_rng(13)
        detector = CusumDetector(k_sigma=0.5, h_sigma=6.0, warmup=16)
        for _ in range(16):
            detector.update(rng.normal(0.0, 1.0))
        for _ in range(30):
            detector.update(rng.normal(-2.0, 1.0))
        assert detector.drifted
        assert detector.s_neg > detector.s_pos

    def test_reset(self):
        detector = CusumDetector(warmup=2)
        detector.update(1.0)
        detector.update(2.0)
        detector.update(50.0)
        detector.reset()
        assert detector.s_pos == 0.0 and detector.s_neg == 0.0
        assert not detector.armed


class TestChannelDriftMonitor:
    def test_needs_at_least_one_statistic(self):
        with pytest.raises(ValueError, match="statistic"):
            ChannelDriftMonitor("ch", statistics=())

    def test_clean_stream_stays_silent(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        for index, bits in enumerate(clean_blocks(seed=5, count=300)):
            signals = monitor.observe_block(bits, t_s=float(index))
            assert signals == [], f"false positive at block {index}"
        assert not monitor.drifting
        assert monitor.signals == []

    def test_degrading_stream_raises_edge_triggered_signals(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        drifting_blocks = 0
        for index, bits in enumerate(ramp_blocks()):
            monitor.observe_block(bits, t_s=float(index))
            drifting_blocks += monitor.drifting
        assert monitor.drifting
        assert "bias" in {signal.statistic for signal in monitor.signals}
        # Edge-triggered: signals fire on threshold *crossings* (a chart
        # may dip below and re-cross during the ramp), never once per
        # block — so a drift sustained for hundreds of blocks produces
        # a small number of actionable events.
        assert 0 < len(monitor.signals) < drifting_blocks / 5

    def test_scores_expose_every_chart(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        monitor.observe_block(np.zeros(64, dtype=np.uint8), t_s=0.0)
        scores = monitor.scores()
        assert set(scores) == {config.name for config in DEFAULT_STATISTICS}
        assert set(scores["bias"]) == {"ewma", "cusum"}

    def test_observe_value_auto_creates_chart(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        for index in range(60):
            monitor.observe_value("latency_s", 0.01 + (index % 3) * 1e-4, float(index))
        # observe_value never advances the block clock...
        assert monitor.block_index == 0
        assert "latency_s" in monitor.scores()
        # ...and a sharp sustained latency shift is flagged.
        fired = []
        for index in range(40):
            fired.extend(monitor.observe_value("latency_s", 0.5, 60.0 + index))
        assert any(signal.statistic == "latency_s" for signal in fired)

    def test_reset_rearms_the_charts(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        for index, bits in enumerate(ramp_blocks(ramp_blocks_n=200, p_end=0.75)):
            monitor.observe_block(bits, t_s=float(index))
        assert monitor.drifting
        monitor.reset()
        assert not monitor.drifting
        assert all(
            score == 0.0
            for per_detector in monitor.scores().values()
            for score in per_detector.values()
        )

    def test_signals_land_on_the_telemetry_plane(self):
        sink = MemorySink()
        with use_sink(sink):
            monitor = ChannelDriftMonitor("IRO-5")
            for index, bits in enumerate(ramp_blocks()):
                monitor.observe_block(bits, t_s=float(index))
        assert monitor.signals
        events = [r for r in sink.records if r.get("type") == "event"]
        assert any(r["name"].startswith("obs.drift.") for r in events)
        snapshot = default_registry().snapshot()
        assert snapshot.counters["repro.obs.drift.signals"] == len(monitor.signals)
        assert snapshot.gauges["repro.obs.drift.drifting.IRO-5"] == 1.0
        assert "repro.obs.drift.score.IRO-5.bias" in snapshot.gauges

    def test_describe_is_operator_readable(self):
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        for index, bits in enumerate(ramp_blocks()):
            monitor.observe_block(bits, t_s=float(index))
        text = monitor.signals[0].describe()
        assert "drift on ch/" in text
        assert "score=" in text


class TestDefaultTuningFalsePositives:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_no_signal_on_clean_512bit_streams(self, seed):
        # The per-statistic thresholds in DEFAULT_STATISTICS were tuned
        # so honest unbiased streams never trip the charts; a tuning
        # change that reintroduces false positives fails here.
        monitor = ChannelDriftMonitor("ch", emit_telemetry=False)
        for index, bits in enumerate(clean_blocks(seed=seed, count=500)):
            assert monitor.observe_block(bits, t_s=float(index)) == []


def test_drift_flags_degradation_a_health_window_before_ais31():
    """The ISSUE acceptance criterion, end to end and deterministic.

    One degrading channel (slow bias ramp, seed 1234); the EWMA/CUSUM
    charts must raise their first signal at least one full AIS-31
    health window (512 bits) of stream *before* the SP 800-90B adaptive
    proportion test first alarms — the drift plane exists to quarantine
    pre-emptively, not to echo the trip wire.
    """
    health = HealthMonitor(claimed_min_entropy=0.9, window=BLOCK_BITS)
    monitor = ChannelDriftMonitor("ramp", emit_telemetry=False)
    first_drift_block = None
    first_alarm_block = None
    for index, bits in enumerate(ramp_blocks(seed=1234)):
        alarms = health.ingest(bits)
        signals = monitor.observe_block(bits, t_s=float(index))
        if signals and first_drift_block is None:
            first_drift_block = index
        if alarms and first_alarm_block is None:
            first_alarm_block = index
            break
    assert first_alarm_block is not None, "the ramp never tripped AIS-31"
    assert first_drift_block is not None, "the charts never fired"
    lead_bits = (first_alarm_block - first_drift_block) * BLOCK_BITS
    assert lead_bits >= BLOCK_BITS, (
        f"drift signal at block {first_drift_block} led the AIS-31 alarm "
        f"(block {first_alarm_block}) by only {lead_bits} bits; "
        f"need >= {BLOCK_BITS}"
    )

"""Online entropy-drift detection: EWMA and CUSUM control charts.

The AIS-31 health tests (:mod:`repro.trng.health`) are *trip wires*:
they fire only when the source is already producing blocks bad enough
to discard.  A fleet operator wants an earlier signal — "channel 3's
bias has been creeping for the last minute" — while the bytes are
still individually acceptable.  Saarinen (PAPERS.md) argues for
exactly this: continuous bit-pattern entropy estimation instead of
one-shot assessment.

This module implements that earlier signal as classical control
charts over per-block statistics:

* :class:`EwmaDetector` — an exponentially-weighted moving average
  chart.  A warmup phase estimates the statistic's baseline mean and
  standard deviation; afterwards the EWMA is compared against the
  baseline in units of its own steady-state sigma
  (``sigma * sqrt(alpha / (2 - alpha))``).  Sensitive to sustained
  small shifts, nearly immune to single-block noise;
* :class:`CusumDetector` — a two-sided cumulative-sum chart on the
  standardized statistic with reference value ``k`` and decision
  interval ``h`` (both in sigmas).  The textbook complement to EWMA:
  it accumulates evidence linearly, so a slow ramp that never moves
  the EWMA far still crosses ``h``;
* :class:`ChannelDriftMonitor` — one per pool channel.  Each observed
  block is reduced to the statistics named in the ISSUE (bias,
  Shannon and min-entropy proxies, health-alarm rate; latency can be
  fed via :meth:`ChannelDriftMonitor.observe_value`), every statistic
  feeds an EWMA *and* a CUSUM detector, and edge-triggered
  :class:`DriftSignal`\\ s come back when a chart newly crosses its
  threshold.  Signals also land on the telemetry plane
  (``obs.drift.*`` events, ``repro.obs.drift.*`` counters, per-channel
  score gauges) so the dashboard can sparkline them.

Time is always injected by the caller (the pool's deterministic
block clock, the supervisor's stream clock, or wall time in the
daemon), so drift drills replay bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import default_registry, emit_event

__all__ = [
    "DEFAULT_STATISTICS",
    "ChannelDriftMonitor",
    "CusumDetector",
    "DriftSignal",
    "EwmaDetector",
    "StatisticConfig",
    "block_statistics",
]


@dataclasses.dataclass(frozen=True)
class DriftSignal:
    """One chart crossing: ``channel``'s ``statistic`` is drifting."""

    channel: str
    statistic: str
    detector: str  #: ``"ewma"`` | ``"cusum"``
    time_s: float
    block_index: int
    value: float  #: the statistic's raw value this block
    score: float  #: chart score in sigmas at the crossing
    threshold: float

    def describe(self) -> str:
        return (
            f"{self.detector} drift on {self.channel}/{self.statistic}: "
            f"score={self.score:.2f} threshold={self.threshold:.2f} "
            f"value={self.value:.4f}"
        )


class _Baseline:
    """Welford-accumulated mean/std of the warmup observations."""

    def __init__(self, warmup: int, min_std: float) -> None:
        if warmup < 2:
            raise ValueError(f"warmup needs at least two blocks, got {warmup}")
        if min_std <= 0.0:
            raise ValueError(f"min std must be positive, got {min_std}")
        self.warmup = int(warmup)
        self.min_std = float(min_std)
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def ready(self) -> bool:
        return self.count >= self.warmup

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        if self.count < 2:
            return self.min_std
        return max(math.sqrt(self._m2 / (self.count - 1)), self.min_std)

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)


class EwmaDetector:
    """EWMA control chart with a warmup-estimated baseline.

    Parameters
    ----------
    alpha:
        EWMA smoothing weight in (0, 1]; smaller = smoother = more
        sensitive to sustained shifts, slower to react.
    threshold_sigma:
        Alarm when ``|ewma - baseline mean|`` exceeds this many
        steady-state EWMA sigmas.
    warmup:
        Blocks used to estimate the baseline before the chart arms.
    min_std:
        Floor on the baseline standard deviation (guards a degenerate
        all-identical warmup, e.g. a zero alarm rate).
    """

    name = "ewma"

    def __init__(
        self,
        alpha: float = 0.2,
        threshold_sigma: float = 4.0,
        warmup: int = 16,
        min_std: float = 1e-4,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if threshold_sigma <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold_sigma}")
        self.alpha = float(alpha)
        self.threshold = float(threshold_sigma)
        self.baseline = _Baseline(warmup, min_std)
        self.ewma: Optional[float] = None
        self.score = 0.0

    @property
    def armed(self) -> bool:
        return self.baseline.ready

    @property
    def drifted(self) -> bool:
        return self.armed and self.score >= self.threshold

    def update(self, x: float) -> float:
        """Feed one observation; return the current score in sigmas."""
        x = float(x)
        if not self.baseline.ready:
            self.baseline.update(x)
            self.ewma = x if self.ewma is None else (
                (1.0 - self.alpha) * self.ewma + self.alpha * x
            )
            self.score = 0.0
            return self.score
        assert self.ewma is not None
        self.ewma = (1.0 - self.alpha) * self.ewma + self.alpha * x
        sigma_ewma = self.baseline.std * math.sqrt(self.alpha / (2.0 - self.alpha))
        self.score = abs(self.ewma - self.baseline.mean) / sigma_ewma
        return self.score

    def reset(self) -> None:
        """Forget the chart *and* the baseline (fresh channel)."""
        self.baseline = _Baseline(self.baseline.warmup, self.baseline.min_std)
        self.ewma = None
        self.score = 0.0


class CusumDetector:
    """Two-sided CUSUM chart on the standardized statistic.

    ``S+ = max(0, S+ + z - k)`` and ``S- = max(0, S- - z - k)`` with
    ``z`` the warmup-standardized observation; the chart alarms when
    either sum reaches the decision interval ``h``.  ``k`` is the
    classical "allowance" — half the shift (in sigmas) the chart is
    tuned to detect quickly.
    """

    name = "cusum"

    def __init__(
        self,
        k_sigma: float = 0.5,
        h_sigma: float = 8.0,
        warmup: int = 16,
        min_std: float = 1e-4,
    ) -> None:
        if k_sigma < 0.0:
            raise ValueError(f"allowance must be non-negative, got {k_sigma}")
        if h_sigma <= 0.0:
            raise ValueError(f"decision interval must be positive, got {h_sigma}")
        self.k = float(k_sigma)
        self.threshold = float(h_sigma)
        self.baseline = _Baseline(warmup, min_std)
        self.s_pos = 0.0
        self.s_neg = 0.0
        self.score = 0.0

    @property
    def armed(self) -> bool:
        return self.baseline.ready

    @property
    def drifted(self) -> bool:
        return self.armed and self.score >= self.threshold

    def update(self, x: float) -> float:
        """Feed one observation; return the current score (max side)."""
        x = float(x)
        if not self.baseline.ready:
            self.baseline.update(x)
            self.score = 0.0
            return self.score
        z = (x - self.baseline.mean) / self.baseline.std
        self.s_pos = max(0.0, self.s_pos + z - self.k)
        self.s_neg = max(0.0, self.s_neg - z - self.k)
        self.score = max(self.s_pos, self.s_neg)
        return self.score

    def reset(self) -> None:
        self.baseline = _Baseline(self.baseline.warmup, self.baseline.min_std)
        self.s_pos = 0.0
        self.s_neg = 0.0
        self.score = 0.0


@dataclasses.dataclass(frozen=True)
class StatisticConfig:
    """Chart tuning for one monitored statistic."""

    name: str
    ewma_alpha: float = 0.2
    ewma_sigma: float = 5.0
    cusum_k: float = 0.75
    cusum_h: float = 12.0
    warmup: int = 48
    min_std: float = 1e-4

    def build(self) -> Tuple[EwmaDetector, CusumDetector]:
        return (
            EwmaDetector(self.ewma_alpha, self.ewma_sigma, self.warmup, self.min_std),
            CusumDetector(self.cusum_k, self.cusum_h, self.warmup, self.min_std),
        )


#: The default panel: per-channel health statistics with thresholds
#: tuned per distribution shape.  ``bias`` is symmetric (binomial), so
#: the plain Gaussian chart applies; the entropy proxies are one-sided
#: and heavy-tailed (quadratic / absolute functions of the bias), so
#: their thresholds sit higher — empirically zero spurious signals
#: over 30x500 clean 512-bit blocks while still flagging a slow bias
#: ramp >100 blocks before the AIS-31 adaptive-proportion cutoff.  The
#: alarm-rate floor is wide because a clean warmup has zero variance
#: there; latency is opt-in via
#: :meth:`ChannelDriftMonitor.observe_value`.
DEFAULT_STATISTICS: Tuple[StatisticConfig, ...] = (
    StatisticConfig("bias", ewma_sigma=6.0),
    StatisticConfig("shannon_entropy", ewma_sigma=10.0, cusum_k=1.0, cusum_h=18.0),
    StatisticConfig("min_entropy", ewma_sigma=8.0, cusum_k=1.0, cusum_h=15.0),
    StatisticConfig("alarm_rate", min_std=0.02),
)


def block_statistics(bits: Sequence[int], alarm_count: int = 0) -> Dict[str, float]:
    """Reduce one block to the monitored health statistics.

    ``bias`` is the signed deviation of the ones fraction from 1/2;
    the entropy figures are the bias-implied (IID binary) proxies —
    cheap enough for every block, and exactly the quantity that decays
    when an oscillator locks or its noise floor drops.
    """
    array = np.asarray(bits, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("bits must be a non-empty one-dimensional sequence")
    p = float(np.mean(array))
    p_max = max(p, 1.0 - p)
    if 0.0 < p < 1.0:
        shannon = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    else:
        shannon = 0.0
    return {
        "bias": p - 0.5,
        "shannon_entropy": shannon,
        "min_entropy": -math.log2(p_max),
        "alarm_rate": float(alarm_count) / float(array.size),
    }


class ChannelDriftMonitor:
    """Every statistic of one channel through an EWMA and a CUSUM chart.

    Signals are edge-triggered: a chart that crosses its threshold
    yields one :class:`DriftSignal` and stays silent until it falls
    back below and crosses again — so a sustained drift produces one
    actionable event, not one per block.
    """

    def __init__(
        self,
        channel: str,
        statistics: Sequence[StatisticConfig] = DEFAULT_STATISTICS,
        emit_telemetry: bool = True,
    ) -> None:
        self.channel = channel
        self.configs: Tuple[StatisticConfig, ...] = tuple(statistics)
        if not self.configs:
            raise ValueError("need at least one monitored statistic")
        self._charts: Dict[str, Tuple[EwmaDetector, CusumDetector]] = {
            config.name: config.build() for config in self.configs
        }
        self._latched: Dict[Tuple[str, str], bool] = {}
        self._emit = bool(emit_telemetry)
        self.block_index = 0
        self.signals: List[DriftSignal] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_block(
        self, bits: Sequence[int], t_s: float, alarm_count: int = 0
    ) -> List[DriftSignal]:
        """Feed one sampled block; return newly-raised drift signals."""
        values = block_statistics(bits, alarm_count)
        return self._observe(values, t_s)

    def observe_value(self, statistic: str, value: float, t_s: float) -> List[DriftSignal]:
        """Feed one externally-computed statistic (e.g. latency)."""
        if statistic not in self._charts:
            config = StatisticConfig(statistic)
            self._charts[statistic] = config.build()
            self.configs = self.configs + (config,)
        return self._observe({statistic: value}, t_s, advance=False)

    def _observe(
        self, values: Dict[str, float], t_s: float, advance: bool = True
    ) -> List[DriftSignal]:
        new_signals: List[DriftSignal] = []
        for statistic, charts in self._charts.items():
            if statistic not in values:
                continue
            value = float(values[statistic])
            for chart in charts:
                score = chart.update(value)
                key = (statistic, chart.name)
                was = self._latched.get(key, False)
                now = chart.drifted
                self._latched[key] = now
                if now and not was:
                    new_signals.append(
                        DriftSignal(
                            channel=self.channel,
                            statistic=statistic,
                            detector=chart.name,
                            time_s=float(t_s),
                            block_index=self.block_index,
                            value=value,
                            score=score,
                            threshold=chart.threshold,
                        )
                    )
        if advance:
            self.block_index += 1
        if new_signals:
            self.signals.extend(new_signals)
            self._publish(new_signals)
        self._update_gauges()
        return new_signals

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def drifting(self) -> bool:
        """True while any chart is above its threshold."""
        return any(
            chart.drifted for charts in self._charts.values() for chart in charts
        )

    def scores(self) -> Dict[str, Dict[str, float]]:
        """Current chart scores, ``{statistic: {detector: score}}``."""
        return {
            statistic: {chart.name: chart.score for chart in charts}
            for statistic, charts in self._charts.items()
        }

    def reset(self) -> None:
        """Fresh charts and baselines (after quarantine/readmission)."""
        for charts in self._charts.values():
            for chart in charts:
                chart.reset()
        self._latched.clear()

    # ------------------------------------------------------------------
    # telemetry bridge
    # ------------------------------------------------------------------
    def _publish(self, signals: Sequence[DriftSignal]) -> None:
        if not self._emit:
            return
        registry = default_registry()
        for signal in signals:
            emit_event(
                f"obs.drift.{signal.detector}",
                channel=signal.channel,
                statistic=signal.statistic,
                time_s=signal.time_s,
                block_index=signal.block_index,
                value=signal.value,
                score=signal.score,
                threshold=signal.threshold,
            )
            registry.counter("repro.obs.drift.signals").inc()
            registry.counter(f"repro.obs.drift.{signal.detector}").inc()

    def _update_gauges(self) -> None:
        if not self._emit:
            return
        registry = default_registry()
        registry.gauge(f"repro.obs.drift.drifting.{self.channel}").set(
            1.0 if self.drifting else 0.0
        )
        for statistic, charts in self._charts.items():
            worst = max(chart.score for chart in charts)
            registry.gauge(f"repro.obs.drift.score.{self.channel}.{statistic}").set(
                worst
            )

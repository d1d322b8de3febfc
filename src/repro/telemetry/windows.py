"""Ring-buffer time windows over metric snapshots.

The registry keeps process-lifetime totals — cheap, mergeable, always
on.  An *operator* needs rates and recent quantiles: bytes/sec over the
last 10 s, p99 latency over the last 30 s, alarms/minute.  This module
computes those from a short ring buffer of timestamped snapshots
instead of instrumenting the hot paths twice:

* a :class:`SnapshotWindow` holds the last ``horizon_s`` seconds of
  ``(time, MetricsSnapshot)`` pairs (bounded by ``max_samples``);
* :meth:`SnapshotWindow.rate` differences a counter between the newest
  sample and the oldest sample inside the requested window;
* :meth:`SnapshotWindow.histogram_quantile` differences the fixed
  histogram buckets the same way and interpolates the quantile from
  the *windowed* counts — so "p99 over the last 30 s" is exact bucket
  arithmetic, not an approximation layered on a decaying average.

The publisher (:class:`repro.telemetry.exposition.MetricsPublisher`)
pushes one snapshot per tick and writes the derived figures back into
the registry as ``repro.obs.window.*`` gauges, where the exposition
endpoint and the dashboard pick them up.  Time is injected by the
caller, so drills replay deterministically.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.telemetry.registry import MetricsSnapshot


@dataclasses.dataclass(frozen=True)
class WindowedHistogram:
    """Histogram content observed inside one time window."""

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]  #: per-bucket deltas (len == len(edges) + 1)
    sum: float
    count: int


class SnapshotWindow:
    """A bounded ring buffer of timestamped registry snapshots.

    Parameters
    ----------
    horizon_s:
        Oldest age retained; queries may ask for any window up to this.
    max_samples:
        Hard cap on buffered snapshots (protects against a caller
        pushing faster than intended).
    """

    def __init__(self, horizon_s: float = 120.0, max_samples: int = 512) -> None:
        if horizon_s <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        if max_samples < 2:
            raise ValueError(f"need at least two samples, got {max_samples}")
        self.horizon_s = float(horizon_s)
        self.max_samples = int(max_samples)
        self._samples: Deque[Tuple[float, MetricsSnapshot]] = deque()

    def __len__(self) -> int:
        return len(self._samples)

    def push(self, snapshot: MetricsSnapshot, t_s: float) -> None:
        """Append one snapshot taken at time ``t_s`` (monotonic seconds).

        Out-of-order pushes are rejected — the window is a timeline.
        """
        t_s = float(t_s)
        if self._samples and t_s < self._samples[-1][0]:
            raise ValueError(
                f"snapshot at t={t_s} is older than the newest sample "
                f"(t={self._samples[-1][0]})"
            )
        self._samples.append((t_s, snapshot))
        while len(self._samples) > self.max_samples:
            self._samples.popleft()
        # Keep one sample older than the horizon so a full-horizon
        # window always has a baseline to difference against.
        cutoff = t_s - self.horizon_s
        while len(self._samples) > 2 and self._samples[1][0] <= cutoff:
            self._samples.popleft()

    # ------------------------------------------------------------------
    # sample access
    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[MetricsSnapshot]:
        return self._samples[-1][1] if self._samples else None

    def _baseline(self, window_s: float) -> Optional[Tuple[float, MetricsSnapshot]]:
        """The oldest sample no older than ``window_s`` before the newest.

        Falls back to the oldest sample the buffer still holds when the
        requested window reaches beyond it (the caller can detect the
        shortfall via :meth:`covered_s`).
        """
        if len(self._samples) < 2:
            return None
        if window_s <= 0.0:
            raise ValueError(f"window must be positive, got {window_s}")
        newest_t = self._samples[-1][0]
        baseline = self._samples[0]
        for t_s, snapshot in self._samples:
            if t_s >= newest_t - window_s:
                baseline = (t_s, snapshot)
                break
        if baseline[0] >= newest_t:
            return None  # zero-width window: no rate computable
        return baseline

    def covered_s(self, window_s: float) -> float:
        """The span the buffer can actually cover for ``window_s``."""
        baseline = self._baseline(window_s)
        if baseline is None:
            return 0.0
        newest_t = self._samples[-1][0]
        return newest_t - baseline[0]

    # ------------------------------------------------------------------
    # windowed figures
    # ------------------------------------------------------------------
    def gauge(self, name: str) -> Optional[float]:
        """The newest sample's value for gauge ``name``."""
        latest = self.latest
        if latest is None:
            return None
        return latest.gauges.get(name)

    def counter_delta(self, name: str, window_s: float) -> int:
        """Counter increase across the window (0 without two samples).

        Clamped at zero: a counter that appears to decrease means the
        underlying registry was reset mid-window, and a negative "rate"
        would be a lie.
        """
        baseline = self._baseline(window_s)
        if baseline is None:
            return 0
        newest = self._samples[-1][1]
        delta = newest.counters.get(name, 0) - baseline[1].counters.get(name, 0)
        return max(0, delta)

    def rate(self, name: str, window_s: float) -> float:
        """Counter increase per second across the window."""
        baseline = self._baseline(window_s)
        if baseline is None:
            return 0.0
        span = self._samples[-1][0] - baseline[0]
        if span <= 0.0:
            return 0.0
        return self.counter_delta(name, window_s) / span

    def histogram_delta(
        self, name: str, window_s: float
    ) -> Optional[WindowedHistogram]:
        """Windowed histogram content: bucket, sum and count deltas."""
        baseline = self._baseline(window_s)
        if baseline is None:
            return None
        newest = self._samples[-1][1]
        body = newest.histograms.get(name)
        if body is None:
            return None
        old = baseline[1].histograms.get(name)
        edges = tuple(float(edge) for edge in body["edges"])
        counts = [int(count) for count in body["counts"]]
        total = float(body["sum"])
        count = int(body["count"])
        if old is not None and tuple(float(e) for e in old["edges"]) == edges:
            counts = [
                max(0, now - before)
                for now, before in zip(counts, (int(c) for c in old["counts"]))
            ]
            total = max(0.0, total - float(old["sum"]))
            count = max(0, count - int(old["count"]))
        return WindowedHistogram(
            edges=edges, counts=tuple(counts), sum=total, count=count
        )

    def histogram_rate(self, name: str, window_s: float) -> float:
        """Histogram observations per second across the window."""
        delta = self.histogram_delta(name, window_s)
        baseline = self._baseline(window_s)
        if delta is None or baseline is None:
            return 0.0
        span = self._samples[-1][0] - baseline[0]
        if span <= 0.0:
            return 0.0
        return delta.count / span

    def histogram_quantile(
        self, name: str, q: float, window_s: float
    ) -> Optional[float]:
        """Quantile ``q`` in [0, 1] of the *windowed* observations.

        Linear interpolation inside the containing bucket (the usual
        Prometheus ``histogram_quantile`` construction); observations
        beyond the last edge report the last edge — the buckets carry
        no upper bound there.  ``None`` when the window saw nothing.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        delta = self.histogram_delta(name, window_s)
        if delta is None:
            return None
        edges: List[float] = list(delta.edges)
        counts: List[int] = list(delta.counts)
        total = sum(counts)
        if total == 0:
            return None
        target = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if cumulative + count >= target:
                if index >= len(edges):
                    return edges[-1]  # overflow bucket: unbounded above
                lower = edges[index - 1] if index > 0 else 0.0
                upper = edges[index]
                if count == 0:
                    return upper
                fraction = (target - cumulative) / count
                return lower + fraction * (upper - lower)
            cumulative += count
        return edges[-1]

"""Operational observability: drift detection and the live dashboard.

``repro.obs`` is the *operator-facing* layer on top of the in-process
telemetry plane (:mod:`repro.telemetry`):

* :mod:`repro.obs.drift` — online EWMA/CUSUM control charts over
  per-channel health statistics, the early-warning complement to the
  AIS-31 trip wires.  Wire into a serve pool with
  :meth:`repro.serve.pool.TrngPool.attach_drift_monitors` (what
  ``repro serve --drift`` does);
* :mod:`repro.obs.dashboard` — the ``repro dash`` terminal dashboard:
  scrapes the exposition sidecar (or tails its JSONL replay log) and
  renders pool health, per-channel state, SLO gauges and drift
  sparklines with plain ANSI.

Everything here is stdlib + numpy; time is injected everywhere so
drills replay deterministically.
"""

from __future__ import annotations

from repro.obs.dashboard import (
    Dashboard,
    DashboardError,
    JsonlSource,
    ScrapeSource,
    flatten_snapshot,
)
from repro.obs.drift import (
    DEFAULT_STATISTICS,
    ChannelDriftMonitor,
    CusumDetector,
    DriftSignal,
    EwmaDetector,
    StatisticConfig,
    block_statistics,
)

__all__ = [
    "DEFAULT_STATISTICS",
    "ChannelDriftMonitor",
    "CusumDetector",
    "Dashboard",
    "DashboardError",
    "DriftSignal",
    "EwmaDetector",
    "JsonlSource",
    "ScrapeSource",
    "StatisticConfig",
    "block_statistics",
    "flatten_snapshot",
]

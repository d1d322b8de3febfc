"""Telemetry overhead: disabled instrumentation must be (nearly) free.

Two guards around the telemetry layer's core promise:

* ``bench_telemetry`` — a tracked benchmark (gated through
  ``reference_timings.json``) running a small event-backend
  ``jitter_versus_length`` campaign — per-length measurement and
  simulation spans on the event engine — with telemetry
  in its default state (null sink, live registry), so a future change
  that makes the instrumented hot paths expensive trips the CI
  regression gate;
* ``test_null_sink_overhead_is_small`` — a direct A/B: a shorter run
  of the same campaign with the layer fully disabled (``all_disabled()`` — null sink *and*
  write-discarding registry) versus the default path, asserting the
  default adds less than 5%.

Timing ratios on shared runners are noisy: host load drifts over
seconds, so two separately timed blocks of runs can differ by more than
the 5% under test.  The A/B therefore times *pairs* of back-to-back
runs, one per side, alternating which side goes first, and gates the
median of the per-pair ratios; drift that spans a pair cancels within
it, and a pair hit by a burst of load moves the median by one rank.
On a shared 2-vCPU host the median of 41 pairs of 64-period runs read
1.00-1.02 on unchanged code, where a best-of-3 ratio read 0.72-1.15.

The A/B is a plain test (no ``benchmark`` fixture) so
``--benchmark-only`` runs skip it; CI invokes this file explicitly.
"""

from __future__ import annotations

import statistics
import time

from repro.core.characterization import jitter_versus_length
from repro.fpga.board import Board
from repro.telemetry import all_disabled

_LENGTHS = (4, 8, 16)
_PERIODS = 512


def _small_run(period_count: int = _PERIODS) -> None:
    jitter_versus_length(
        Board(),
        _LENGTHS,
        "str",
        period_count=period_count,
        seed=0,
        backend="event",
    )


#: Disabled/enabled pairs in the A/B; odd, so the median is one pair's ratio.
_PAIRS = 41
#: Periods per run in the A/B.  Short runs keep two runs of a pair close
#: in time, and make the per-run spans a larger share of the work.
_AB_PERIODS = 64


def _timed_run() -> float:
    start = time.perf_counter()
    _small_run(_AB_PERIODS)
    return time.perf_counter() - start


def _disabled_run() -> float:
    with all_disabled():
        return _timed_run()


def _pair_ratio(enabled_first: bool) -> float:
    """``enabled / disabled`` wall time of two back-to-back runs."""
    if enabled_first:
        enabled_s = _timed_run()
        baseline_s = _disabled_run()
    else:
        baseline_s = _disabled_run()
        enabled_s = _timed_run()
    return enabled_s / baseline_s


def bench_telemetry(benchmark):
    benchmark.pedantic(_small_run, rounds=1, iterations=1)


def test_null_sink_overhead_is_small():
    _small_run(_AB_PERIODS)  # warm-up: imports, calibration caches
    ratios = [_pair_ratio(enabled_first=bool(pair % 2)) for pair in range(_PAIRS)]
    ratio = statistics.median(ratios)
    print(
        f"\nnull-sink / disabled over {_PAIRS} pairs: median {ratio:.3f}  "
        f"range {min(ratios):.3f}-{max(ratios):.3f}"
    )
    assert ratio < 1.05, (
        f"null-sink telemetry adds {(ratio - 1):.1%} to the hot path "
        "(must stay under 5%)"
    )

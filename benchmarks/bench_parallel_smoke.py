"""Parallel-vs-serial smoke: identity always, speedup when asked.

Runs a TAB2-sized characterization campaign (the Table II ring grid,
2048 jitter periods) serially and with a four-worker pool and asserts
the two executor-layer contracts end to end:

* the parallel report is **bit-identical** to the serial one;
* a cache-warm rerun costs a small fraction of the cold run.

Wall-clock speedup depends on the machine, so it is only *asserted*
when ``REPRO_MIN_SPEEDUP`` is set (CI sets a conservative floor; a quiet
4-core box reaches ~2.5x+); otherwise it is printed for information.
One serial/``jobs=4`` pair is not enough to gate on: on a shared 2-vCPU
host its ratio read 1.24x-2.12x on unchanged code.  The speedup is
therefore the median of the ratios of alternating pairs, serial first in
one pair and parallel first in the next, as in the telemetry-overhead
A/B: load drift that spans a pair cancels within it, and one pair hit
by a burst of load moves the median by one rank.

These are plain tests (no ``benchmark`` fixture), so
``--benchmark-only`` runs skip them; CI invokes this file explicitly.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.campaign import RingSpec, run_campaign
from repro.fpga.board import BoardBank
from repro.fpga.calibration import TABLE2_TARGETS
from repro.parallel import ResultCache

TAB2_SPECS = [RingSpec(t.kind, t.stage_count) for t in TABLE2_TARGETS]


def _campaign(jobs, cache=None):
    bank = BoardBank.manufacture(board_count=5, seed=7)
    start = time.perf_counter()
    report = run_campaign(
        TAB2_SPECS,
        bank=bank,
        jitter_periods=2048,
        seed=0,
        jobs=jobs,
        cache=cache,
    )
    return report.to_json(), time.perf_counter() - start


#: Serial/parallel pairs behind the speedup; odd, so the median is one pair's ratio.
_PAIRS = 5


def _pair(serial_first):
    """``(serial_json, parallel_json, serial_s / parallel_s)`` of two back-to-back runs."""
    if serial_first:
        serial_json, serial_s = _campaign(1)
        parallel_json, parallel_s = _campaign(4)
    else:
        parallel_json, parallel_s = _campaign(4)
        serial_json, serial_s = _campaign(1)
    return serial_json, parallel_json, serial_s / parallel_s


def test_parallel_campaign_identity_and_speedup(tmp_path):
    speedups = []
    for pair in range(_PAIRS):
        serial_json, parallel_json, speedup = _pair(serial_first=pair % 2 == 0)
        assert parallel_json == serial_json, "parallel campaign diverged from serial"
        speedups.append(speedup)

    speedup = statistics.median(speedups)
    print(
        f"\nserial / jobs=4 over {_PAIRS} pairs: median {speedup:.2f}x  "
        f"range {min(speedups):.2f}-{max(speedups):.2f}x  cores {os.cpu_count()}"
    )
    floor = float(os.environ.get("REPRO_MIN_SPEEDUP", "0"))
    assert speedup >= floor, (
        f"median speedup {speedup:.2f}x below required {floor:g}x "
        f"(cores: {os.cpu_count()})"
    )


def test_cached_rerun_is_cheap(tmp_path):
    cache = ResultCache(root=tmp_path / "bench_cache")
    cold_json, cold_s = _campaign(1, cache=cache)
    warm_json, warm_s = _campaign(1, cache=cache)
    assert warm_json == cold_json, "cache-warm campaign diverged from cold"
    fraction = warm_s / cold_s if cold_s > 0 else 0.0
    print(f"\ncold {cold_s:.2f}s  warm {warm_s:.3f}s  fraction {fraction:.1%}")
    # Locally the warm rerun is ~1-2% of cold; 50% leaves timing-noise
    # headroom on loaded CI runners while still proving the cache works.
    assert warm_s < 0.5 * cold_s, (
        f"cached rerun took {fraction:.0%} of the cold run"
    )

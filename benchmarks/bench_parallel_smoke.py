"""Parallel-vs-serial smoke: identity always, speedup when asked.

Asserts the executor-layer contracts end to end:

* a TAB2-sized characterization campaign (the Table II ring grid, 2048
  jitter periods) at ``jobs=4`` is **bit-identical** to the serial one;
* a cache-warm rerun of the event-backend campaign costs a small
  fraction of the cold run;
* a 200 000-device PUF enrollment at ``jobs=4`` gives the serial
  responses, and its speedup is gated when asked.

The campaign runs one grid task per ring family, so it has at most two
tasks and cannot show a four-job speedup; the enrollment's chunk grid
can.  Wall-clock speedup depends on the machine, so it is only
*asserted* when ``REPRO_MIN_SPEEDUP`` is set (CI sets a conservative
floor); otherwise it is printed for information.  One serial/``jobs=4``
pair is not enough to gate on: on a shared 2-vCPU host one pair's ratio
spread from 1.24x to 2.12x on unchanged code.  The speedup is therefore
the median of the ratios of alternating pairs, serial first in one pair
and parallel first in the next, as in the telemetry-overhead A/B: load
drift that spans a pair cancels within it, and one pair hit by a burst
of load moves the median by one rank.

These are plain tests (no ``benchmark`` fixture), so
``--benchmark-only`` runs skip them; CI invokes this file explicitly.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.core.campaign import RingSpec, run_campaign
from repro.fpga.board import BoardBank
from repro.fpga.calibration import TABLE2_TARGETS
from repro.parallel import ResultCache
from repro.puf import enroll_population

TAB2_SPECS = [RingSpec(t.kind, t.stage_count) for t in TABLE2_TARGETS]

#: Devices in the gated enrollment.  At 50 000 the pool's start-up
#: weighs enough that a 2-vCPU host read a median of only 1.30x.
ENROLL_DEVICES = 200_000


def _campaign(jobs, cache=None, backend="batch"):
    bank = BoardBank.manufacture(board_count=5, seed=7)
    start = time.perf_counter()
    report = run_campaign(
        TAB2_SPECS,
        bank=bank,
        jitter_periods=2048,
        seed=0,
        jobs=jobs,
        cache=cache,
        backend=backend,
    )
    return report.to_json(), time.perf_counter() - start


def _enroll(jobs):
    start = time.perf_counter()
    enrollment = enroll_population(ENROLL_DEVICES, seed=0, jobs=jobs)
    return enrollment.responses, time.perf_counter() - start


#: Serial/parallel pairs behind the speedup; odd, so the median is one pair's ratio.
_PAIRS = 5


def _pair(serial_first):
    """``(serial_responses, parallel_responses, serial_s / parallel_s)`` of two back-to-back runs."""
    if serial_first:
        serial, serial_s = _enroll(1)
        parallel, parallel_s = _enroll(4)
    else:
        parallel, parallel_s = _enroll(4)
        serial, serial_s = _enroll(1)
    return serial, parallel, serial_s / parallel_s


def test_parallel_campaign_identity():
    serial_json, _ = _campaign(1)
    parallel_json, _ = _campaign(4)
    assert parallel_json == serial_json, "parallel campaign diverged from serial"


def test_parallel_enrollment_identity_and_speedup():
    speedups = []
    for pair in range(_PAIRS):
        serial, parallel, speedup = _pair(serial_first=pair % 2 == 0)
        assert np.array_equal(parallel, serial), "parallel enrollment diverged from serial"
        speedups.append(speedup)

    speedup = statistics.median(speedups)
    print(
        f"\nenroll {ENROLL_DEVICES} serial / jobs=4 over {_PAIRS} pairs: "
        f"median {speedup:.2f}x  range {min(speedups):.2f}-{max(speedups):.2f}x  "
        f"cores {os.cpu_count()}"
    )
    floor = float(os.environ.get("REPRO_MIN_SPEEDUP", "0"))
    assert speedup >= floor, (
        f"median speedup {speedup:.2f}x below required {floor:g}x "
        f"(cores: {os.cpu_count()})"
    )


def test_cached_rerun_is_cheap(tmp_path):
    # The event oracle makes the cold run a few seconds, so the warm
    # rerun's saving stands clear of timing noise.
    cache = ResultCache(root=tmp_path / "bench_cache")
    cold_json, cold_s = _campaign(1, cache=cache, backend="event")
    warm_json, warm_s = _campaign(1, cache=cache, backend="event")
    assert warm_json == cold_json, "cache-warm campaign diverged from cold"
    fraction = warm_s / cold_s if cold_s > 0 else 0.0
    print(f"\ncold {cold_s:.2f}s  warm {warm_s:.3f}s  fraction {fraction:.1%}")
    # Locally the warm rerun is ~1-2% of cold; 50% leaves timing-noise
    # headroom on loaded CI runners while still proving the cache works.
    assert warm_s < 0.5 * cold_s, (
        f"cached rerun took {fraction:.0%} of the cold run"
    )

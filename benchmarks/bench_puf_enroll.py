"""PUF enrollment benchmark: population throughput of the vectorized kernel.

``bench_puf_enroll`` is a tracked pytest-benchmark entry (see
``reference_timings.json``): it enrolls a 100k-device population on the
default 32-ring design, which exercises the full chunked pipeline —
vectorised per-device seeding and process sampling, the (device, ring,
stage) frequency kernel, and response-bit derivation.  It runs at about
90k devices/s in one process on a 2-vCPU x86-64 host (about 17k
devices/s with per-device ``default_rng`` seeding); the reference in
``reference_timings.json`` sits below half the per-device-seeding time,
so a return to that loop fails the 2x gate.
"""

from __future__ import annotations

from repro.puf import PufDesign, enroll_population

ENROLL_DEVICES = 100_000


def _enroll_workload():
    enrollment = enroll_population(
        ENROLL_DEVICES, design=PufDesign(ring_count=32, stage_count=3), seed=0
    )
    return enrollment.device_count


def bench_puf_enroll(benchmark):
    devices = benchmark.pedantic(_enroll_workload, rounds=3, iterations=1)
    rate = devices / benchmark.stats.stats.min
    print(f"\nenrolled {devices} devices per pass ({rate:,.0f} devices/s)")
    assert devices == ENROLL_DEVICES

"""PUF manufacturing and readout, pinned bit for bit.

The digests were recorded while every device still seeded its own
``numpy.random.default_rng`` from a serially spawned child list.  Device
factors, response bits, readout noise and the scorecard rows must not
move when that path is vectorised: any change to these digests is a
behaviour change, not a speedup.

The grid covers the three comparison topologies, both placement
policies, noiseless and 64-period readouts, ``jobs`` 1 and 2, roots on
either side of the one-word/two-word SeedSequence boundaries (2**32 and
2**64), the degenerate process models, and a population that spans more
than one enrollment chunk.
"""

import dataclasses
import hashlib

import pytest

from repro.fpga.calibration import TABLE2_PROCESS
from repro.fpga.process import ProcessVariation
from repro.fpga.voltage import SupplySpec
from repro.puf.enrollment import (
    CHUNK_DEVICES,
    PufDesign,
    enroll_population,
    measure_population,
)
from repro.puf.metrics import score_population, stress_corners

CORNERS = (SupplySpec(),) + tuple(corner for _, corner in stress_corners())


def _digest(responses, mean_frequency_mhz: float) -> str:
    sha = hashlib.sha256()
    for rows in responses:
        sha.update(repr((rows.shape, str(rows.dtype))).encode())
        sha.update(rows.tobytes())
    sha.update(repr(mean_frequency_mhz).encode())
    return sha.hexdigest()


def _enrollment_digest(enrollment) -> str:
    return _digest((enrollment.responses,), enrollment.mean_frequency_mhz)


def _measurement_digest(measurement) -> str:
    return _digest(measurement.responses, measurement.mean_frequency_mhz)


@pytest.mark.parametrize(
    "root, expected",
    [
        (0, "0fda6d1a741663dc748e86913d6a7a79c49973e5c698c8b1afeeb5d89b628df0"),
        (2**32 - 1, "5b9af5f13bbdb986e86fc821a3e53e84bb2242b59dba0328010a1284c03d89e6"),
        (2**32, "57100c25343f70986d5e3c53720fb179430ca222eabc1d8dde8204661c55a61e"),
        (2**64 + 1, "ef34710ada2a17d93acfdf5e3742b7f9d65457f0974d2f76404cbb57be4bd2fc"),
    ],
)
def test_enrollment_across_root_widths(root, expected):
    enrollment = enroll_population(600, seed=root)
    assert _enrollment_digest(enrollment) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_multi_chunk_enrollment(jobs):
    devices = 2 * CHUNK_DEVICES + 37
    enrollment = enroll_population(
        devices, design=PufDesign(ring_count=8, measure_periods=64), seed=5, jobs=jobs
    )
    assert enrollment.responses.shape == (devices, 7)
    assert _enrollment_digest(enrollment) == (
        "29f6ff2a602f79b617c1f176d613e1b26dc996bb4cf49496a612dec20490f5c2"
    )


MEASUREMENT_CASES = [
    (
        "neighbor-aligned-noiseless",
        PufDesign(ring_count=16),
        dict(seed=11, jobs=1),
        "61517d7af5eeeddd7b18a795d22a88b6a03cc119f8353f325606fc2bc19dd9ce",
    ),
    (
        "neighbor-sequential-noisy",
        PufDesign(ring_count=32, placement_policy="sequential", measure_periods=64),
        dict(seed=2**32, measurement_seed=7, jobs=2),
        "35e8a59400ac87e8519de94dc4116067a85f21da02d965b4599bae46e0109db1",
    ),
    (
        "allpairs-sequential-noisy",
        PufDesign(
            ring_count=8,
            topology="allpairs",
            placement_policy="sequential",
            measure_periods=64,
        ),
        dict(seed=2**32 - 1, jobs=1),
        "41e743d81d6b63c16e3698ad45be0b96918bc02fb87f831d6d11352a2a87f628",
    ),
    (
        "allpairs-aligned-noiseless",
        PufDesign(ring_count=8, topology="allpairs"),
        dict(seed=2**64 + 1, jobs=2),
        "ede221fe16afbaf0191c150b854ab7f7c3904ca74cbdd775e49bff1f7a985523",
    ),
    (
        "lehmer-aligned-noisy",
        PufDesign(ring_count=16, topology="lehmer", group_size=4, measure_periods=64),
        dict(seed=3, measurement_seed=2**64 + 1, jobs=2),
        "d82996d40cba4c5b1859ecaae19e490dfea7aef5d421516fa4b6d7a70c7ade1a",
    ),
    (
        "lehmer-sequential-noiseless",
        PufDesign(
            ring_count=16, topology="lehmer", group_size=8, placement_policy="sequential"
        ),
        dict(seed=0, jobs=1),
        "a5ac347b6482c55e3650a4605587ead292c53495f99b2ea60d87405d7bf75d9a",
    ),
]


@pytest.mark.parametrize(
    "design, kwargs, expected",
    [case[1:] for case in MEASUREMENT_CASES],
    ids=[case[0] for case in MEASUREMENT_CASES],
)
def test_measure_population_at_every_corner(design, kwargs, expected):
    measurement = measure_population(500, design=design, corners=CORNERS, **kwargs)
    assert len(measurement.responses) == len(CORNERS)
    assert _measurement_digest(measurement) == expected


PROCESS_CASES = [
    (
        "local-only",
        ProcessVariation(0.0, 0.0178),
        "3cb477aa6d352c79f267286ebfc70dc93d3d2ac3b394e6eba8f917d2c09dc9ae",
    ),
    (
        "global-only",
        ProcessVariation(0.00157, 0.0),
        "17c273b04f00f7d6b244c408d78fa213b82660883fa21d55faed3ee54abc6987",
    ),
    (
        "none",
        ProcessVariation.none(),
        "37b97f6be9e14f643295b2a27d6998b154c17ed79612f928d6bf909a46c90473",
    ),
    (
        "wide",
        ProcessVariation(0.2, 0.5),
        "15ac705e0bca75a4b7bab42ebdc05448c9735a87f5284f2e8c3370f2c4953477",
    ),
]


@pytest.mark.parametrize(
    "process, expected",
    [case[1:] for case in PROCESS_CASES],
    ids=[case[0] for case in PROCESS_CASES],
)
def test_degenerate_and_clipped_process_models(process, expected):
    """Zero sigmas draw nothing; a wide spread exercises the 3-sigma clip."""
    measurement = measure_population(
        300,
        design=PufDesign(ring_count=8, measure_periods=64),
        corners=CORNERS[:2],
        seed=9,
        process=process,
    )
    assert _measurement_digest(measurement) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_score_population_rows(jobs):
    score = score_population(
        400, design=PufDesign(ring_count=16, measure_periods=64), seed=21, jobs=jobs
    )
    rows = repr(
        (
            dataclasses.astuple(score.uniqueness),
            [dataclasses.astuple(row) for row in score.reliability],
        )
    ).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "80d508cc3f32b3bd083c924de28f00407909f3493062b80d4bf4da013cb549b2"
    )


def test_table2_default_enrollment():
    enrollment = enroll_population(1000, process=TABLE2_PROCESS, seed=2**64 + 1, jobs=2)
    assert _enrollment_digest(enrollment) == (
        "80cc93ab0bece502afa93e15d12df1ec066e18086385de3d7acd8cd3a84be39e"
    )


@pytest.mark.parametrize(
    "root, expected",
    [
        (0, "ce9a64e2074c816e1f5bcd396024740aff96790bd74cffb1dff240b5bf21ce07"),
        (2**64 + 1, "16539fa4c1a9464f1c2cbe503ee0c93c7a6ef4ca70838c0e97709d0cedba0455"),
    ],
)
def test_device_factors(root, expected):
    batch = TABLE2_PROCESS.sample_device_batch(96, 300, seed=root)
    factors = batch.global_factors.tobytes() + batch.lut_factors.tobytes()
    assert hashlib.sha256(factors).hexdigest() == expected

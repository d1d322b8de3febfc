"""Population enrollment of simulated ring-oscillator PUFs.

One *device* is a full process draw
(:meth:`repro.fpga.process.ProcessVariation.sample_device`): a global
speed factor plus per-LUT mismatch.  One *PUF instance* is a bank of
identical short IROs placed on that device; its response bits come from
pairwise frequency comparisons (:mod:`repro.puf.topology`).  Enrollment
manufactures ``n`` such devices and measures each one's response — up
to ~1M devices in one call, through the same stacked ``(ring, stage)``
array layout as the PR-6 batch simulation kernel.

Physics
-------
The vectorized frequency kernel evaluates **exactly** the IRO timing
law of :class:`repro.fpga.device.DeviceTimingModel` (identity-tested in
``tests/puf/test_enrollment.py``)::

    stage_delay = lut_delay_ps * g * l_s * fV_lut  +  route_ps(hop) * g * fV_route
    period      = 2 * sum_s stage_delay_s

with ``g`` the device's global factor, ``l_s`` the stage LUT's local
mismatch and ``fV_*`` the supply/temperature delay factors of
:mod:`repro.fpga.voltage`.  A measurement averaging ``N`` periods adds
Gaussian noise with the variance of the mean of ``N`` independent
periods, each period accumulating every stage's jitter twice
(``sigma_T^2 = 2 * sum_s sigma_s^2``).  ``measure_periods = 0`` models
an ideal (noiseless) frequency readout — the deterministic limit the
PUF-STABLE claim pins down.

Placement policies
------------------
``aligned`` (default) packs every ring into one LAB with an identical
footprint, so all rings share the same routing delays and response bits
are unbiased.  ``sequential`` reuses the paper's sequential fill
(:func:`repro.fpga.placement.place_ring` from LUT 0 upward): rings
straddling a LAB boundary pay two inter-LAB hops, a ~190 ps systematic
period offset that swamps the ~9 ps process signal and *aliases* the
affected comparison bits — the placement-sensitivity effect EXT11
quantifies.

Determinism
-----------
Device ``i`` always draws from child seed ``i`` of the population root
(see :meth:`ProcessVariation.sample_device_batch`), so responses are
independent of ``jobs`` and chunk boundaries.  A chunk task carries only
``(root, start, stop)``: each worker derives its own slice of child
seeds with the vectorised kernel of :mod:`repro.parallel.seeds`, so the
parent's work is O(chunks), not O(devices).  Measurement noise is
keyed by ``(measurement_seed, corner index, chunk start)``; with the
default chunk size it too is jobs-independent.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.device import TimingConstants
from repro.fpga.placement import Placement, place_ring
from repro.fpga.process import DeviceVariationBatch, ProcessVariation
from repro.fpga.voltage import SupplySpec
from repro.parallel import GridTask, run_grid
from repro.parallel.seeds import child_seeds, root_entropy
from repro.puf.topology import derive_response_bits, response_bit_count, validate_topology
from repro.telemetry import default_registry, span

#: Devices manufactured and measured per grid task.  Part of the noise
#: stream definition when ``measure_periods > 0`` (the chunk draws its
#: noise in one batched call), so it is a constant, not a tuning knob.
CHUNK_DEVICES = 8192

#: Placement policies understood by :class:`PufDesign`.
PLACEMENT_POLICIES: Tuple[str, ...] = ("aligned", "sequential")


@dataclasses.dataclass(frozen=True)
class PufDesign:
    """The per-device PUF circuit: ring bank, placement, readout, encoding."""

    ring_count: int = 32
    stage_count: int = 3
    topology: str = "neighbor"
    group_size: int = 8
    placement_policy: str = "aligned"
    measure_periods: int = 0

    def __post_init__(self) -> None:
        if self.stage_count < 1:
            raise ValueError(f"stage count must be positive, got {self.stage_count}")
        if self.measure_periods < 0:
            raise ValueError(
                f"measure_periods must be non-negative, got {self.measure_periods}"
            )
        if self.placement_policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement_policy!r}; "
                f"pick one of {PLACEMENT_POLICIES}"
            )
        validate_topology(self.ring_count, self.topology, self.group_size)

    @property
    def response_bits(self) -> int:
        """Response bits one device yields."""
        return response_bit_count(self.ring_count, self.topology, self.group_size)

    def describe(self) -> str:
        noise = (
            f"{self.measure_periods}-period readout"
            if self.measure_periods
            else "noiseless readout"
        )
        return (
            f"{self.ring_count} x IRO {self.stage_count}C, "
            f"{self.topology} comparisons ({self.response_bits} bits), "
            f"{self.placement_policy} placement, {noise}"
        )


def ring_placements(
    design: PufDesign, constants: Optional[TimingConstants] = None
) -> List[Placement]:
    """Where each of the design's rings sits on the fabric."""
    constants = constants if constants is not None else TimingConstants()
    capacity = constants.lab_capacity
    stages = design.stage_count
    if design.placement_policy == "sequential":
        return [
            place_ring(stages, capacity, first_lut=ring * stages)
            for ring in range(design.ring_count)
        ]
    rings_per_lab = capacity // stages
    if rings_per_lab < 1:
        raise ValueError(
            f"aligned placement needs the ring to fit one LAB: "
            f"{stages} stages > capacity {capacity}"
        )
    return [
        place_ring(
            stages,
            capacity,
            first_lut=(ring // rings_per_lab) * capacity
            + (ring % rings_per_lab) * stages,
        )
        for ring in range(design.ring_count)
    ]


def required_lut_count(
    design: PufDesign, constants: Optional[TimingConstants] = None
) -> int:
    """LUTs a device must carry to host the design's ring bank."""
    placements = ring_placements(design, constants)
    return max(max(placement.lut_indices) for placement in placements) + 1


@dataclasses.dataclass(frozen=True)
class CornerTables:
    """Per-``(ring, stage)`` nominal delays resolved at one supply corner.

    Process-free and device-free: multiplying in a device's factors is
    all the frequency kernel has left to do, which is what makes the
    per-population work a handful of fused array ops.
    """

    supply: SupplySpec
    lut_index: np.ndarray
    lut_delay_ps: np.ndarray
    route_delay_ps: np.ndarray
    jitter_sigma_ps: np.ndarray

    @property
    def ring_count(self) -> int:
        return int(self.lut_index.shape[0])

    @property
    def stage_count(self) -> int:
        return int(self.lut_index.shape[1])


def corner_tables(
    design: PufDesign,
    supply: SupplySpec,
    constants: Optional[TimingConstants] = None,
) -> CornerTables:
    """Resolve the design's nominal delay tables at one supply corner."""
    constants = constants if constants is not None else TimingConstants()
    placements = ring_placements(design, constants)
    lut_factor = constants.transistor_sensitivity.delay_factor(
        supply.voltage_v
    ) * constants.transistor_temperature.delay_factor(supply.temperature_c)
    route_factor = constants.interconnect_sensitivity.delay_factor(
        supply.voltage_v
    ) * constants.interconnect_temperature.delay_factor(supply.temperature_c)
    lut_index = np.array(
        [placement.lut_indices for placement in placements], dtype=np.intp
    )
    route_nominal = np.array(
        [
            [constants.route_delay_ps(hop) for hop in placement.hop_classes]
            for placement in placements
        ],
        dtype=float,
    )
    return CornerTables(
        supply=supply,
        lut_index=lut_index,
        lut_delay_ps=np.full(lut_index.shape, constants.lut_delay_ps * lut_factor),
        route_delay_ps=route_nominal * route_factor,
        jitter_sigma_ps=np.full(
            lut_index.shape, constants.gate_jitter_sigma_ps * lut_factor
        ),
    )


def population_frequencies(
    batch: DeviceVariationBatch,
    tables: CornerTables,
    *,
    measure_periods: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Measured ``(device, ring)`` frequencies [MHz] at one corner.

    ``measure_periods > 0`` adds the noise of a real frequency counter
    averaging that many periods; it requires ``rng``.
    """
    return _StageKernel(batch, tables.lut_index).frequencies(tables, measure_periods, rng)


class _StageKernel:
    """A device batch's ``(device, ring, stage)`` LUT factors and buffers.

    Every corner of a design shares its placements, so one gather serves
    them all.  ``take`` lays the gather out C-ordered, where
    ``lut_factors[:, lut_index]`` would not, and the two reused buffers
    follow it: the stage reduce of another layout would add, and so
    round, in another order.
    """

    def __init__(self, batch: DeviceVariationBatch, lut_index: np.ndarray) -> None:
        self.lut_factors = np.take(
            np.asarray(batch.lut_factors, dtype=float), lut_index, axis=1
        )
        self.global_factors = np.asarray(batch.global_factors, dtype=float)[:, None, None]
        self._delays = np.empty_like(self.lut_factors)
        self._scratch = np.empty_like(self.lut_factors)

    def frequencies(
        self,
        tables: CornerTables,
        measure_periods: int,
        rng: Optional[np.random.Generator],
    ) -> np.ndarray:
        """Measured ``(device, ring)`` frequencies [MHz] at one corner.

        The in-place ops are the float operations of::

            lut_delays   = lut_delay_ps * global_factors * lut_factors
            route_delays = route_delay_ps * global_factors
            periods_ps   = 2.0 * (lut_delays + route_delays).sum(axis=2)

        in that order, so the result is bit-identical to the broadcast
        formula.  The stage sum stays one NumPy reduce: from 8 stages it
        sums pairwise, which a running stage-by-stage sum would not
        reproduce.
        """
        delays, scratch = self._delays, self._scratch
        lut_factors, global_factors = self.lut_factors, self.global_factors
        np.multiply(tables.lut_delay_ps[None, :, :], global_factors, out=delays)
        np.multiply(delays, lut_factors, out=delays)
        np.multiply(tables.route_delay_ps[None, :, :], global_factors, out=scratch)
        periods_ps = 2.0 * np.add(delays, scratch, out=delays).sum(axis=2)
        if measure_periods:
            if rng is None:
                raise ValueError("measurement noise (measure_periods > 0) needs an rng")
            np.multiply(tables.jitter_sigma_ps[None, :, :], global_factors, out=scratch)
            np.multiply(scratch, lut_factors, out=scratch)
            period_variance = 2.0 * np.sum(np.multiply(scratch, scratch, out=scratch), axis=2)
            periods_ps = periods_ps + rng.standard_normal(
                periods_ps.shape
            ) * np.sqrt(period_variance / measure_periods)
        return 1.0e6 / periods_ps


# ----------------------------------------------------------------------
# chunked population drivers
# ----------------------------------------------------------------------
def _measure_chunk_worker(task: GridTask):
    """Manufacture one device chunk and measure it at every corner.

    The per-corner tables arrive resolved in the payload: they depend
    only on the design, the corner and the constants, never the chunk.
    The chunk gathers its ``(device, ring, stage)`` LUT factors once for
    all corners (see :class:`_StageKernel`).  With a noiseless
    readout a repeated corner measures exactly what its first occurrence
    did, so it gets a copy of those response bits.
    """
    payload = task.payload
    design: PufDesign = payload["design"]
    tables_by_corner: Tuple[CornerTables, ...] = payload["tables"]
    process: ProcessVariation = payload["process"]
    # A None root draws fresh OS entropy once per chunk.
    device_seeds = child_seeds(
        root_entropy(payload["root"]), np.arange(payload["start"], payload["stop"])
    )
    batch = process.sample_devices(payload["lut_count"], device_seeds)
    kernel = _StageKernel(batch, tables_by_corner[0].lut_index)
    responses: List[np.ndarray] = []
    first_corner: Dict[SupplySpec, int] = {}
    frequency_sum = 0.0
    for corner_index, tables in enumerate(tables_by_corner):
        if not design.measure_periods and tables.supply in first_corner:
            responses.append(responses[first_corner[tables.supply]].copy())
            continue
        first_corner.setdefault(tables.supply, corner_index)
        rng: Optional[np.random.Generator] = None
        if design.measure_periods:
            noise_root = payload["noise_root"]
            if noise_root is None:
                rng = np.random.default_rng()
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        (int(noise_root), corner_index, int(payload["start"]))
                    )
                )
        frequencies = kernel.frequencies(tables, design.measure_periods, rng)
        if corner_index == 0:
            frequency_sum = float(frequencies.sum())
        responses.append(
            derive_response_bits(frequencies, design.topology, design.group_size)
        )
    return {"responses": responses, "frequency_sum": frequency_sum}


@dataclasses.dataclass(frozen=True)
class PopulationMeasurement:
    """Responses of one device population measured at several corners.

    ``responses[c][i]`` is device ``i``'s response at corner ``c`` —
    the same physical devices at every corner, which is what makes
    cross-corner rows *intra*-device comparisons.
    """

    design: PufDesign
    corners: Tuple[SupplySpec, ...]
    device_count: int
    seed: Optional[int]
    responses: Tuple[np.ndarray, ...]
    mean_frequency_mhz: float
    elapsed_s: float


def measure_population(
    device_count: int,
    *,
    design: Optional[PufDesign] = None,
    corners: Sequence[SupplySpec] = (),
    seed: Optional[int] = 0,
    measurement_seed: Optional[int] = None,
    process: Optional[ProcessVariation] = None,
    constants: Optional[TimingConstants] = None,
    jobs: Optional[int] = 1,
    progress=None,
) -> PopulationMeasurement:
    """Manufacture ``device_count`` devices and measure each corner.

    ``measurement_seed`` keys only the readout noise (defaults to the
    population ``seed``): re-measuring the same population under fresh
    noise is a different ``measurement_seed``, the same ``seed``.
    """
    from repro.fpga.calibration import TABLE2_PROCESS

    if device_count < 1:
        raise ValueError(f"device count must be positive, got {device_count}")
    design = design if design is not None else PufDesign()
    corners = tuple(corners) if corners else (SupplySpec(),)
    process = process if process is not None else TABLE2_PROCESS
    constants = constants if constants is not None else TimingConstants()
    noise_root = measurement_seed if measurement_seed is not None else seed
    root = None if seed is None else root_entropy(seed)

    start_time = time.perf_counter()
    with span(
        "puf_enroll",
        devices=device_count,
        rings=design.ring_count,
        corners=len(corners),
        topology=design.topology,
    ):
        tables = tuple(corner_tables(design, corner, constants) for corner in corners)
        lut_count = required_lut_count(design, constants)
        tasks = []
        for chunk_start in range(0, device_count, CHUNK_DEVICES):
            chunk_stop = min(chunk_start + CHUNK_DEVICES, device_count)
            tasks.append(
                GridTask(
                    kind="puf_enroll",
                    spec={
                        "start": chunk_start,
                        "devices": chunk_stop - chunk_start,
                        "corners": len(corners),
                    },
                    seed=noise_root,
                    payload={
                        "design": design,
                        "tables": tables,
                        "lut_count": lut_count,
                        "process": process,
                        "root": root,
                        "noise_root": noise_root,
                        "start": chunk_start,
                        "stop": chunk_stop,
                    },
                )
            )
        chunk_results = run_grid(
            tasks, _measure_chunk_worker, jobs=jobs, progress=progress
        )
        responses = tuple(
            np.concatenate([chunk["responses"][index] for chunk in chunk_results])
            for index in range(len(corners))
        )
        mean_frequency = sum(
            chunk["frequency_sum"] for chunk in chunk_results
        ) / (device_count * design.ring_count)
    elapsed = time.perf_counter() - start_time

    registry = default_registry()
    registry.counter("repro.puf.enrollments").inc()
    registry.counter("repro.puf.devices").inc(device_count)
    registry.counter("repro.puf.response_bits").inc(
        device_count * design.response_bits * len(corners)
    )
    registry.histogram("repro.puf.enroll_seconds").observe(elapsed)
    return PopulationMeasurement(
        design=design,
        corners=corners,
        device_count=device_count,
        seed=seed,
        responses=responses,
        mean_frequency_mhz=mean_frequency,
        elapsed_s=elapsed,
    )


@dataclasses.dataclass(frozen=True)
class Enrollment:
    """The enrollment database: one reference response per device."""

    design: PufDesign
    corner: SupplySpec
    device_count: int
    seed: Optional[int]
    responses: np.ndarray
    mean_frequency_mhz: float
    elapsed_s: float

    @property
    def response_bits(self) -> int:
        return int(self.responses.shape[1])


def enroll_population(
    device_count: int,
    *,
    design: Optional[PufDesign] = None,
    corner: Optional[SupplySpec] = None,
    seed: Optional[int] = 0,
    measurement_seed: Optional[int] = None,
    process: Optional[ProcessVariation] = None,
    constants: Optional[TimingConstants] = None,
    jobs: Optional[int] = 1,
    progress=None,
) -> Enrollment:
    """Enroll a population at one (typically nominal) corner."""
    measurement = measure_population(
        device_count,
        design=design,
        corners=(corner if corner is not None else SupplySpec(),),
        seed=seed,
        measurement_seed=measurement_seed,
        process=process,
        constants=constants,
        jobs=jobs,
        progress=progress,
    )
    return Enrollment(
        design=measurement.design,
        corner=measurement.corners[0],
        device_count=measurement.device_count,
        seed=measurement.seed,
        responses=measurement.responses[0],
        mean_frequency_mhz=measurement.mean_frequency_mhz,
        elapsed_s=measurement.elapsed_s,
    )

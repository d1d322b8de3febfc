"""Enrollment: kernel identity with the timing model, determinism, scale."""

import numpy as np
import pytest

from repro.fpga.board import Board
from repro.fpga.calibration import TABLE2_PROCESS
from repro.fpga.device import TimingConstants
from repro.fpga.voltage import SupplySpec
from repro.parallel import GridTask
from repro.parallel.seeds import child_seeds, root_entropy
from repro.puf.enrollment import (
    CHUNK_DEVICES,
    PufDesign,
    _measure_chunk_worker,
    corner_tables,
    enroll_population,
    measure_population,
    population_frequencies,
    required_lut_count,
    ring_placements,
)
from repro.puf.metrics import score_population
from repro.puf.topology import derive_response_bits
from repro.rings.iro import InverterRingOscillator


def _broadcast_frequencies(batch, tables, measure_periods=0, rng=None):
    """The broadcast formula the chunk kernel must reproduce bit for bit."""
    lut_factors = np.asarray(batch.lut_factors, dtype=float)[:, tables.lut_index]
    global_factors = np.asarray(batch.global_factors, dtype=float)[:, None, None]
    lut_delays = tables.lut_delay_ps[None, :, :] * global_factors * lut_factors
    route_delays = tables.route_delay_ps[None, :, :] * global_factors
    periods_ps = 2.0 * (lut_delays + route_delays).sum(axis=2)
    if measure_periods:
        sigmas = tables.jitter_sigma_ps[None, :, :] * global_factors * lut_factors
        period_variance = 2.0 * np.sum(sigmas * sigmas, axis=2)
        periods_ps = periods_ps + rng.standard_normal(
            periods_ps.shape
        ) * np.sqrt(period_variance / measure_periods)
    return 1.0e6 / periods_ps


class TestPufDesign:
    def test_defaults_describe(self):
        design = PufDesign()
        assert design.response_bits == 31
        assert "32 x IRO 3C" in design.describe()
        assert "noiseless" in design.describe()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 rings"):
            PufDesign(ring_count=1)
        with pytest.raises(ValueError, match="placement policy"):
            PufDesign(placement_policy="random")
        with pytest.raises(ValueError, match="measure_periods"):
            PufDesign(measure_periods=-1)


class TestPlacements:
    def test_aligned_rings_share_routing(self):
        """Every aligned ring has the same single-LAB hop profile."""
        design = PufDesign(ring_count=32, stage_count=3)
        placements = ring_placements(design)
        profiles = {placement.hop_classes for placement in placements}
        assert len(profiles) == 1
        assert all(placement.lab_count == 1 for placement in placements)

    def test_aligned_rings_do_not_overlap(self):
        design = PufDesign(ring_count=32, stage_count=3)
        used = [
            lut
            for placement in ring_placements(design)
            for lut in placement.lut_indices
        ]
        assert len(used) == len(set(used))

    def test_sequential_rings_cross_lab_boundaries(self):
        design = PufDesign(ring_count=32, stage_count=3, placement_policy="sequential")
        placements = ring_placements(design)
        crossing = [p for p in placements if p.lab_count > 1]
        assert crossing, "sequential fill must straddle some LAB boundary"

    def test_aligned_rejects_oversized_ring(self):
        constants = TimingConstants(lab_capacity=4)
        with pytest.raises(ValueError, match="fit one LAB"):
            ring_placements(PufDesign(ring_count=4, stage_count=5), constants)

    def test_required_lut_count(self):
        design = PufDesign(ring_count=32, stage_count=3)
        assert required_lut_count(design) >= 32 * 3


class TestFrequencyKernel:
    @pytest.mark.parametrize("policy", ["aligned", "sequential"])
    @pytest.mark.parametrize(
        "corner",
        [SupplySpec(), SupplySpec(voltage_v=1.05, temperature_c=70.0)],
    )
    def test_identity_with_device_timing_model(self, policy, corner):
        """The vectorized kernel equals the per-ring IRO prediction exactly."""
        design = PufDesign(ring_count=6, stage_count=3, placement_policy=policy)
        batch = TABLE2_PROCESS.sample_device_batch(
            required_lut_count(design), 4, seed=17
        )
        frequencies = population_frequencies(batch, corner_tables(design, corner))
        for device_index in range(4):
            board = Board(variation=batch.device(device_index), supply=corner)
            for ring_index, placement in enumerate(ring_placements(design)):
                ring = InverterRingOscillator.on_board(
                    board, design.stage_count, first_lut=placement.lut_indices[0]
                )
                assert frequencies[device_index, ring_index] == pytest.approx(
                    ring.predicted_frequency_mhz(), rel=1e-12
                )

    def test_noise_needs_rng(self):
        design = PufDesign(ring_count=4, stage_count=3)
        batch = TABLE2_PROCESS.sample_device_batch(required_lut_count(design), 2, seed=1)
        with pytest.raises(ValueError, match="needs an rng"):
            population_frequencies(
                batch, corner_tables(design, SupplySpec()), measure_periods=64
            )

    def test_noise_shrinks_with_averaging(self):
        design = PufDesign(ring_count=4, stage_count=3)
        batch = TABLE2_PROCESS.sample_device_batch(required_lut_count(design), 1, seed=1)
        tables = corner_tables(design, SupplySpec())
        clean = population_frequencies(batch, tables)

        def spread(periods):
            rng = np.random.default_rng(0)
            samples = np.stack(
                [
                    population_frequencies(
                        batch, tables, measure_periods=periods, rng=rng
                    )
                    for _ in range(64)
                ]
            )
            return float(np.std(samples - clean))

        assert spread(4096) < spread(64) / 4


KERNEL_CASES = [
    pytest.param(stages, policy, periods, id=f"{stages}C-{policy}-{periods}p")
    for stages in (1, 3, 8, 9, 16)
    for policy in ("aligned", "sequential")
    for periods in (0, 64)
]


class TestChunkKernel:
    """The chunk worker's hoisted gather and reused buffers change no bit."""

    CORNERS = (
        SupplySpec(),
        SupplySpec(),
        SupplySpec(voltage_v=1.0),
        SupplySpec(temperature_c=100.0),
    )

    @pytest.mark.parametrize("stages, policy, periods", KERNEL_CASES)
    def test_population_frequencies_equal_broadcast_formula(self, stages, policy, periods):
        design = PufDesign(ring_count=8, stage_count=stages, placement_policy=policy)
        batch = TABLE2_PROCESS.sample_device_batch(required_lut_count(design), 40, seed=3)
        for corner in self.CORNERS[1:]:
            tables = corner_tables(design, corner)
            assert np.array_equal(
                population_frequencies(
                    batch, tables, measure_periods=periods, rng=np.random.default_rng(5)
                ),
                _broadcast_frequencies(batch, tables, periods, np.random.default_rng(5)),
            )

    @pytest.mark.parametrize("stages, policy, periods", KERNEL_CASES)
    def test_chunk_worker_equals_broadcast_formula(self, stages, policy, periods):
        design = PufDesign(
            ring_count=8, stage_count=stages, placement_policy=policy, measure_periods=periods
        )
        tables = tuple(corner_tables(design, corner) for corner in self.CORNERS)
        start, stop, root, noise_root = CHUNK_DEVICES, CHUNK_DEVICES + 150, 21, 4
        payload = {
            "design": design,
            "tables": tables,
            "lut_count": required_lut_count(design),
            "process": TABLE2_PROCESS,
            "root": root,
            "noise_root": noise_root,
            "start": start,
            "stop": stop,
        }
        result = _measure_chunk_worker(GridTask(kind="puf_enroll", spec={}, payload=payload))

        batch = TABLE2_PROCESS.sample_devices(
            payload["lut_count"], child_seeds(root_entropy(root), np.arange(start, stop))
        )
        for index, corner_tables_ in enumerate(tables):
            rng = np.random.default_rng(np.random.SeedSequence((noise_root, index, start)))
            expected = _broadcast_frequencies(batch, corner_tables_, periods, rng)
            if index == 0:
                assert result["frequency_sum"] == float(expected.sum())
            assert np.array_equal(
                result["responses"][index],
                derive_response_bits(expected, design.topology, design.group_size),
            )
        # the repeated nominal corner is a copy, never a view of the first
        assert not np.shares_memory(result["responses"][0], result["responses"][1])


class TestRepeatedCorners:
    def test_noiseless_remeasure_row_is_exact(self):
        score = score_population(300, design=PufDesign(ring_count=8), seed=4)
        remeasure = score.reliability[0]
        assert remeasure.label == "re-measure"
        assert remeasure.mean_intra_hd == 0.0

    def test_noisy_corners_keep_their_own_streams(self):
        design = PufDesign(ring_count=16, stage_count=3, measure_periods=64)
        score = score_population(300, design=design, seed=4)
        assert 0.0 < score.reliability[0].mean_intra_hd < 0.1
        measurement = measure_population(
            300, design=design, corners=(SupplySpec(),) * 3, seed=4
        )
        first, second, third = measurement.responses
        assert not np.array_equal(first, second)
        assert not np.array_equal(second, third)


class TestEnrollment:
    def test_deterministic_and_seed_sensitive(self):
        design = PufDesign(ring_count=8, stage_count=3)
        first = enroll_population(50, design=design, seed=5)
        second = enroll_population(50, design=design, seed=5)
        other = enroll_population(50, design=design, seed=6)
        assert np.array_equal(first.responses, second.responses)
        assert not np.array_equal(first.responses, other.responses)

    def test_chunking_invariance(self):
        """Responses must not depend on how the population is chunked."""
        design = PufDesign(ring_count=8, stage_count=3)
        small = enroll_population(CHUNK_DEVICES // 64, design=design, seed=5)
        # the same devices are a prefix of a multi-chunk population
        assert np.array_equal(
            small.responses,
            enroll_population(CHUNK_DEVICES // 32, design=design, seed=5).responses[
                : CHUNK_DEVICES // 64
            ],
        )

    def test_parallel_matches_serial(self):
        design = PufDesign(ring_count=8, stage_count=3)
        serial = enroll_population(300, design=design, seed=9, jobs=1)
        parallel = enroll_population(300, design=design, seed=9, jobs=2)
        assert np.array_equal(serial.responses, parallel.responses)

    def test_multi_corner_measurement_shares_devices(self):
        design = PufDesign(ring_count=8, stage_count=3)
        measurement = measure_population(
            40,
            design=design,
            corners=(SupplySpec(), SupplySpec(voltage_v=1.0)),
            seed=2,
        )
        assert len(measurement.responses) == 2
        # zero noise + aligned placement: the stressed corner rescales
        # every period by shared positive factors -> identical orderings
        assert np.array_equal(measurement.responses[0], measurement.responses[1])

    def test_noisy_remeasure_differs_but_close(self):
        design = PufDesign(ring_count=16, stage_count=3, measure_periods=256)
        measurement = measure_population(
            200, design=design, corners=(SupplySpec(), SupplySpec()), seed=2
        )
        flips = np.count_nonzero(measurement.responses[0] != measurement.responses[1])
        total = measurement.responses[0].size
        assert 0 < flips < 0.1 * total

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="positive"):
            enroll_population(0)

    def test_telemetry_counters(self):
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            enroll_population(10, design=PufDesign(ring_count=4, stage_count=3), seed=1)
        snapshot = registry.snapshot().to_dict()
        counters = snapshot["counters"]
        assert counters["repro.puf.enrollments"] == 1
        assert counters["repro.puf.devices"] == 10
        assert counters["repro.puf.response_bits"] == 10 * 3

"""Enrollment: kernel identity with the timing model, determinism, scale."""

import numpy as np
import pytest

from repro.fpga.board import Board
from repro.fpga.calibration import TABLE2_PROCESS
from repro.fpga.device import TimingConstants
from repro.fpga.voltage import SupplySpec
from repro.puf.enrollment import (
    CHUNK_DEVICES,
    PufDesign,
    corner_tables,
    enroll_population,
    measure_population,
    population_frequencies,
    required_lut_count,
    ring_placements,
)
from repro.rings.iro import InverterRingOscillator


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

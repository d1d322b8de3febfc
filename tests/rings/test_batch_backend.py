"""The ``backend="batch"`` switch on rings, characterization and campaign.

Mirrors ``tests/parallel/test_parallel_identity.py``: the event path is
the oracle, and every consumer that grew a ``backend`` switch must
either match it bit for bit (IRO, noiseless STR) or reproduce its
physics within documented statistical bounds (noisy STR).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.campaign import RingSpec, run_campaign
from repro.core.characterization import jitter_versus_length, measure_period_jitter
from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.experiments import fig09_histograms, fig10_method
from repro.experiments.registry import run_experiment
from repro.fpga.board import BoardBank
from repro.measurement.counters import RippleDivider
from repro.rings.base import simulate_many
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import ConstantModulation, SinusoidalModulation
from repro.telemetry import MemorySink, default_registry, use_sink
from repro.trng.elementary import ElementaryTrng


def make_iro(stages=5, sigma=2.0):
    rng = np.random.default_rng(42)
    return InverterRingOscillator(
        rng.uniform(150.0, 350.0, size=stages), jitter_sigmas_ps=sigma
    )


def make_str(stages=8, sigma=0.0):
    diagram = CharlieDiagram(CharlieParameters.symmetric(250.0, 100.0))
    return SelfTimedRing([diagram] * stages, stages // 2, jitter_sigmas_ps=sigma)


class TestRingSimulateBackend:
    def test_iro_batch_backend_bit_identical(self):
        ring = make_iro()
        event = ring.simulate(64, seed=7, warmup_periods=8, backend="event")
        batch = ring.simulate(64, seed=7, warmup_periods=8, backend="batch")
        np.testing.assert_array_equal(
            batch.trace.times_ps, event.trace.times_ps
        )
        np.testing.assert_array_equal(
            batch.warmup_trace.times_ps, event.warmup_trace.times_ps
        )
        assert batch.period_count == event.period_count

    def test_iro_batch_backend_with_constant_modulation(self):
        ring = make_iro()
        modulation = ConstantModulation(0.08)
        event = ring.simulate(
            32, seed=3, modulation=modulation, warmup_periods=4, backend="event"
        )
        batch = ring.simulate(
            32, seed=3, modulation=modulation, warmup_periods=4, backend="batch"
        )
        np.testing.assert_array_equal(batch.trace.times_ps, event.trace.times_ps)

    def test_iro_unbatchable_modulation_falls_back_to_event(self):
        ring = make_iro()
        modulation = SinusoidalModulation(0.05, 5000.0)
        registry = default_registry()
        assert registry.counter("repro.batch.fallbacks").value == 0
        event = ring.simulate(
            24, seed=5, modulation=modulation, warmup_periods=4, backend="event"
        )
        batch = ring.simulate(
            24, seed=5, modulation=modulation, warmup_periods=4, backend="batch"
        )
        assert registry.counter("repro.batch.fallbacks").value == 1
        # The fallback is the event engine itself: identical output.
        np.testing.assert_array_equal(batch.trace.times_ps, event.trace.times_ps)

    def test_str_noiseless_batch_backend_bit_identical(self):
        ring = make_str()
        event = ring.simulate(48, seed=11, warmup_periods=8, backend="event")
        batch = ring.simulate(48, seed=11, warmup_periods=8, backend="batch")
        np.testing.assert_array_equal(batch.trace.times_ps, event.trace.times_ps)
        np.testing.assert_array_equal(
            batch.warmup_trace.times_ps, event.warmup_trace.times_ps
        )

    def test_str_noisy_batch_backend_statistically_equivalent(self):
        ring = make_str(16, sigma=2.0)
        event = ring.simulate(600, seed=2, warmup_periods=32, backend="event")
        batch = ring.simulate(600, seed=2, warmup_periods=32, backend="batch")
        assert batch.trace.mean_period_ps() == pytest.approx(
            event.trace.mean_period_ps(), rel=0.01
        )
        assert batch.trace.period_jitter_ps() == pytest.approx(
            event.trace.period_jitter_ps(), rel=0.35
        )

    @pytest.mark.parametrize("ring_factory", [make_iro, make_str])
    def test_invalid_backend_rejected(self, ring_factory):
        with pytest.raises(ValueError, match="backend"):
            ring_factory().simulate(8, seed=0, backend="gpu")


class TestSimulateMany:
    def _rings(self):
        return [make_str(8, sigma=2.0), make_iro(5), make_str(16, sigma=2.0), make_iro(3)]

    def test_each_result_is_the_ring_run_alone(self):
        rings = self._rings()
        counts = [40, 24, 32, 16]
        seeds = [3, 4, 5, 6]
        many = simulate_many(rings, counts, seeds, warmup_periods=4)
        for ring, count, seed, result in zip(rings, counts, seeds, many):
            alone = ring.simulate(count, seed=seed, warmup_periods=4)
            np.testing.assert_array_equal(
                result.warmup_trace.times_ps, alone.warmup_trace.times_ps
            )
            np.testing.assert_array_equal(result.trace.times_ps, alone.trace.times_ps)
            assert result.events_processed == alone.events_processed

    def test_repeated_rings_build_their_spec_once(self, monkeypatch):
        """Restarts of one ring (different counts and seeds) reuse its
        per-stage arrays and still run as if alone."""
        built = []
        for cls in (SelfTimedRing, InverterRingOscillator):
            original = cls._batch_spec

            def counting(ring, *args, _original=original):
                built.append(ring)
                return _original(ring, *args)

            monkeypatch.setattr(cls, "_batch_spec", counting)
        str8, iro5 = make_str(8, sigma=2.0), make_iro(5)
        rings = [str8, iro5, str8, str8, iro5]
        counts = [40, 24, 32, 16, 20]
        seeds = [3, 4, 5, 6, 7]
        many = simulate_many(rings, counts, seeds, warmup_periods=4)
        assert sorted(map(id, built)) == sorted((id(str8), id(iro5)))
        for ring, count, seed, result in zip(rings, counts, seeds, many):
            alone = ring.simulate(count, seed=seed, warmup_periods=4)
            np.testing.assert_array_equal(result.trace.times_ps, alone.trace.times_ps)
            assert result.events_processed == alone.events_processed

    def test_one_kernel_call_per_family(self):
        simulate_many(self._rings(), 16, [0, 1, 2, 3])
        assert default_registry().counter("repro.batch.simulations").value == 2

    def test_iro_ripple_falls_back_per_ring(self):
        rings = self._rings()
        ripple = SinusoidalModulation(0.05, 5000.0)
        sink = MemorySink()
        with use_sink(sink):
            many = simulate_many(rings, 12, [0, 1, 2, 3], warmup_periods=2, modulation=ripple)
        registry = default_registry()
        assert registry.counter("repro.batch.fallbacks").value == 2
        assert registry.counter("repro.batch.simulations").value == 1  # the STRs
        backends = sorted(
            (record["attrs"]["backend"], record["attrs"].get("rejected_modulation"))
            for record in _simulate_spans(sink)
        )
        assert backends == [
            ("batch", None),
            ("event", "SinusoidalModulation"),
            ("event", "SinusoidalModulation"),
        ]
        iro_event = rings[1].simulate(
            12, seed=1, modulation=ripple, warmup_periods=2, backend="event"
        )
        np.testing.assert_array_equal(many[1].trace.times_ps, iro_event.trace.times_ps)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="one period count and one seed per ring"):
            simulate_many(self._rings(), [8, 8], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="period_count"):
            simulate_many(self._rings(), 0, [0, 1, 2, 3])


class TestJitterVersusLengthBackend:
    def test_iro_batch_rows_bit_identical(self, board):
        lengths = (3, 5, 9)
        event = jitter_versus_length(
            board, lengths, "iro", period_count=400, seed=13, backend="event"
        )
        batch = jitter_versus_length(
            board, lengths, "iro", period_count=400, seed=13, backend="batch"
        )
        for event_row, batch_row in zip(event, batch):
            assert batch_row.stage_count == event_row.stage_count
            assert batch_row.sigma_period_ps == event_row.sigma_period_ps
            assert batch_row.mean_period_ps == event_row.mean_period_ps

    def test_str_batch_rows_statistically_equivalent(self, board):
        lengths = (8, 16)
        event = jitter_versus_length(
            board, lengths, "str", period_count=600, seed=17, backend="event"
        )
        batch = jitter_versus_length(
            board, lengths, "str", period_count=600, seed=17, backend="batch"
        )
        for event_row, batch_row in zip(event, batch):
            assert batch_row.stage_count == event_row.stage_count
            assert batch_row.mean_period_ps == pytest.approx(
                event_row.mean_period_ps, rel=0.01
            )
            assert batch_row.sigma_period_ps == pytest.approx(
                event_row.sigma_period_ps, rel=0.35
            )

    def test_invalid_backend_rejected(self, board):
        with pytest.raises(ValueError, match="backend"):
            jitter_versus_length(board, (3,), "iro", backend="gpu")


class TestCampaignBackend:
    @pytest.fixture(scope="class")
    def bank(self):
        return BoardBank.manufacture(board_count=2, seed=7)

    def test_iro_rows_bit_identical(self, bank):
        specs = [RingSpec("iro", 5)]
        event = run_campaign(
            specs, bank=bank, jitter_periods=512, seed=3, backend="event"
        )
        batch = run_campaign(
            specs, bank=bank, jitter_periods=512, seed=3, backend="batch"
        )
        event_row, batch_row = event.results[0], batch.results[0]
        assert batch_row.period_jitter_ps == event_row.period_jitter_ps
        assert batch_row.diffusion_sigma_ps == event_row.diffusion_sigma_ps
        assert batch_row.trng_entropy_bound == event_row.trng_entropy_bound

    def test_str_rows_statistically_equivalent(self, bank):
        specs = [RingSpec("str", 16)]
        event = run_campaign(
            specs, bank=bank, jitter_periods=768, seed=3, backend="event"
        )
        batch = run_campaign(
            specs, bank=bank, jitter_periods=768, seed=3, backend="batch"
        )
        event_row, batch_row = event.results[0], batch.results[0]
        assert batch_row.nominal_frequency_mhz == event_row.nominal_frequency_mhz
        assert batch_row.period_jitter_ps == pytest.approx(
            event_row.period_jitter_ps, rel=0.35
        )

    def test_batch_campaign_json_pinned(self, bank):
        # Recorded when each family ran in its own hand-built kernel call.
        specs = [
            RingSpec("iro", 5),
            RingSpec("str", 8),
            RingSpec("str", 32, 10),
            RingSpec("str", 7, 4),
        ]
        report = run_campaign(specs, bank=bank, jitter_periods=512, seed=3, backend="batch")
        assert _digest(report.to_json()) == (
            "04e311ec5981460b897abc60e7fadf7f7a9dd842121e122d624c2c79a8df207a"
        )

    def test_invalid_backend_rejected(self, bank):
        with pytest.raises(ValueError, match="backend"):
            run_campaign([RingSpec("iro", 5)], bank=bank, backend="gpu")


def _event_counts():
    registry = default_registry()
    events = sum(
        registry.counter(f"repro.rings.{family}.events").value
        for family in ("iro", "str")
    )
    return events, registry.counter("repro.batch.simulations").value


class TestEventOraclePinned:
    """Callers that name the event engine must not inherit the batch default."""

    def test_event_campaign_runs_on_event_engine(self):
        bank = BoardBank.manufacture(board_count=2, seed=7)
        run_campaign([RingSpec("str", 8)], bank=bank, jitter_periods=256, backend="event")
        events, batch_calls = _event_counts()
        assert events > 0
        assert batch_calls == 0

    def test_event_jitter_versus_length_runs_on_event_engine(self, board):
        jitter_versus_length(board, [8], "str", period_count=256, backend="event")
        events, batch_calls = _event_counts()
        assert events > 0
        assert batch_calls == 0

    def test_simulated_elementary_trng_runs_on_event_engine(self, board):
        ring = SelfTimedRing.on_board(board, 8)
        trng = ElementaryTrng(ring, reference_period_ps=30_000.0, use_simulation=True)
        trng.generate(32, seed=2)
        events, batch_calls = _event_counts()
        assert events > 0
        assert batch_calls == 0


class TestSweepsStayOnTheKernel:
    """A silent event fallback in a sweep is invisible to a timing gate
    when the event engine is about as fast as the kernel (FIG5's two
    12-stage rings); the counters see it."""

    def test_fig5_runs_no_event_engine(self):
        run_experiment("FIG5")
        events, batch_calls = _event_counts()
        assert events == 0
        assert default_registry().counter("repro.batch.fallbacks").value == 0
        assert batch_calls > 0


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestEventOracleDigests:
    """Event-backend outputs, pinned to the digit by SHA-256 digests.

    Recorded before ``simulate`` defaulted to the batch kernel: the
    event paths of the campaign and of the jitter driver must still
    produce exactly these reports.
    """

    @pytest.mark.parametrize(
        "kind, stages, digest",
        [
            ("iro", 5, "49a82deaffc535999ba0073b4bbcbf6f1caab21ecd3b290f3f8365866b992c9c"),
            ("str", 8, "be3412890152e4d99398d62ca9cdd908d87be36a9feb701432fc99d99b0b335c"),
        ],
    )
    def test_campaign_json(self, kind, stages, digest):
        bank = BoardBank.manufacture(board_count=2, seed=7)
        report = run_campaign(
            [RingSpec(kind, stages)], bank=bank, jitter_periods=512, seed=3, backend="event"
        )
        assert _digest(report.to_json()) == digest

    @pytest.mark.parametrize(
        "family, lengths, digest",
        [
            ("iro", [3, 5], "60ddc4c0cb4bd9024bfb62d45ec8e2574b38af22a96902252bd1640f76a50714"),
            ("str", [8, 16], "3cf1e97d0074a9516f6a0a31d6c70f54a32c3da36d8e0ceace84e0a3cd95a16a"),
        ],
    )
    def test_jitter_versus_length_rows(self, board, family, lengths, digest):
        rows = jitter_versus_length(
            board, lengths, family, period_count=400, seed=13, backend="event"
        )
        text = json.dumps([dataclasses.asdict(row) for row in rows], sort_keys=True)
        assert _digest(text) == digest


def _simulate_spans(sink):
    return [
        record
        for record in sink.records
        if record["type"] == "span" and record["name"] == "simulate"
    ]


class TestBackendVisibility:
    def test_fig9_str_simulation_tagged_batch(self, board):
        sink = MemorySink()
        with use_sink(sink):
            fig09_histograms.run(board=board, period_count=256)
        spans = {record["attrs"]["ring"]: record for record in _simulate_spans(sink)}
        str_span = spans["STR 96C"]
        assert str_span["attrs"]["backend"] == "batch"
        assert "rejected_modulation" not in str_span["attrs"]
        kernel_spans = [
            record
            for record in sink.records
            if record["type"] == "span" and record["name"] == "batch_simulate"
        ]
        assert str_span["span_id"] in {record["parent_id"] for record in kernel_spans}

    def test_iro_ripple_fallback_tagged_event(self):
        sink = MemorySink()
        with use_sink(sink):
            make_iro().simulate(24, seed=5, modulation=SinusoidalModulation(0.05, 5000.0))
        (record,) = _simulate_spans(sink)
        assert record["attrs"]["backend"] == "event"
        assert record["attrs"]["rejected_modulation"] == "SinusoidalModulation"
        assert default_registry().counter("repro.batch.fallbacks").value == 1

    def test_event_backend_is_not_a_fallback(self):
        sink = MemorySink()
        with use_sink(sink):
            make_iro().simulate(
                24, seed=5, modulation=SinusoidalModulation(0.05, 5000.0), backend="event"
            )
        (record,) = _simulate_spans(sink)
        assert record["attrs"]["backend"] == "event"
        assert "rejected_modulation" not in record["attrs"]
        assert default_registry().counter("repro.batch.fallbacks").value == 0


class TestFig10SharedTrace:
    def test_rows_match_one_measurement_per_method(self, board):
        result = fig10_method.run(
            board=board, iro_period_count=1024, str_period_count=512, divider_bits=4
        )
        divider = RippleDivider(bit_count=4)
        expected = []
        for ring, period_count in (
            (InverterRingOscillator.on_board(board, 5), 1024),
            (SelfTimedRing.on_board(board, 96), 512),
        ):
            for method in ("population", "direct", "divider"):
                reading = measure_period_jitter(
                    ring, method=method, period_count=period_count, seed=5, divider=divider
                )
                expected.append((ring.name, method, reading.sigma_period_ps))
        assert [row[:3] for row in result.rows] == expected

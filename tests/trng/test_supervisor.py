"""Supervised TRNG runtime: state machine, recovery ladder, event log."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.campaign import RingSpec
from repro.faults import (
    FaultSchedule,
    GlitchBurstFault,
    ScheduledFault,
    StuckStageFault,
    SupplyRippleFault,
    VoltageBrownoutFault,
    standard_fault,
)
from repro.fpga.board import Board
from repro.trng.health import HealthMonitor
from repro.trng.supervisor import (
    LOCK_THRESHOLD,
    BackoffSchedule,
    EventLog,
    RingChannel,
    SupervisedTrng,
    SupervisorEvent,
    TotalFailureError,
    TrngState,
    fault_effect,
    health_probe,
    log_event,
)

IRO5 = RingSpec("iro", 5)
STR48 = RingSpec("str", 48)


@pytest.fixture(scope="module")
def board():
    return Board()


def scheduled(fault, start_s=0.2):
    return FaultSchedule([ScheduledFault(fault, start_s=start_s)], name=fault.name)


class TestRingChannel:
    def test_nominal_sampling_is_healthy(self, board):
        channel = RingChannel(IRO5, board)
        bits, status = channel.sample_block(4096, np.random.default_rng(0))
        assert status == "ok"
        assert HealthMonitor().check_block(bits)

    def test_oscillation_death_freezes_output(self, board):
        from repro.faults import FaultEffect

        channel = RingChannel(IRO5, board)
        bits, status = channel.sample_block(
            256, np.random.default_rng(0), FaultEffect(oscillation_dead=True)
        )
        assert status == "oscillation_dead"
        assert len(set(bits.tolist())) == 1

    def test_injection_lock_asymmetry(self, board):
        """The same aggressor locks the IRO but not the STR — the
        supply-weight mechanism behind the paper's C4/C5 claims."""
        from repro.faults import FaultEffect

        iro = RingChannel(IRO5, board)
        str_channel = RingChannel(STR48, board)
        assert iro.supply_weight > LOCK_THRESHOLD > str_channel.supply_weight
        effect = FaultEffect(injection_strength=0.95)
        _, iro_status = iro.sample_block(256, np.random.default_rng(0), effect)
        str_bits, str_status = str_channel.sample_block(
            4096, np.random.default_rng(0), effect
        )
        assert iro_status == "injection_locked"
        assert str_status == "ok"
        assert HealthMonitor().check_block(str_bits)

    def test_thermal_upset(self, board):
        from repro.faults import FaultEffect

        channel = RingChannel(IRO5, board)
        _, status = channel.sample_block(
            64, np.random.default_rng(0), FaultEffect(temperature_c=130.0)
        )
        assert status == "thermal_upset"

    def test_operating_point_rebuild(self, board):
        from repro.faults import FaultEffect

        channel = RingChannel(IRO5, board)
        bits, status = channel.sample_block(
            4096, np.random.default_rng(0), FaultEffect(supply_v=1.0)
        )
        assert status == "ok"
        # the degraded operating point still delivers usable bits
        assert 0.3 < bits.mean() < 0.7

    def test_upsets_force_bits(self, board):
        from repro.faults import FaultEffect

        channel = RingChannel(IRO5, board)
        bits, status = channel.sample_block(
            2048,
            np.random.default_rng(0),
            FaultEffect(upset_fraction=1.0, upset_value=1),
        )
        assert status == "ok"  # the ring itself is fine
        assert bits.min() == 1

    def test_local_upsets_hit_only_the_primary_sampler(self, board):
        from repro.faults import FaultEffect

        channel = RingChannel(IRO5, board)
        local = FaultEffect(upset_fraction=1.0, upset_value=1, upset_local=True)
        shared = FaultEffect(upset_fraction=1.0, upset_value=1, upset_local=False)
        spared, _ = channel.sample_block(2048, np.random.default_rng(0), local, primary=False)
        assert spared.min() == 0
        forced, _ = channel.sample_block(2048, np.random.default_rng(0), shared, primary=False)
        assert forced.min() == 1


class TestSharedCore:
    """The parts the supervisor and the serve pool both run on."""

    def test_fault_effect_reads_the_scenario_from_its_epoch(self):
        from repro.faults import NOMINAL_EFFECT

        scenario = scheduled(StuckStageFault(), start_s=0.2)
        assert fault_effect(None, 5.0) is NOMINAL_EFFECT
        assert not fault_effect(scenario, 0.1).oscillation_dead
        assert fault_effect(scenario, 0.3).oscillation_dead
        assert not fault_effect(scenario, 0.3, epoch_s=0.2).oscillation_dead
        assert fault_effect(scenario, 0.5, epoch_s=0.2).oscillation_dead

    def test_health_probe_records_every_block_and_reports_status(self):
        blocks = iter(
            [
                (np.tile([0, 1], 256), "ok"),
                (np.zeros(512, dtype=int), "injection_locked"),
                (np.tile([0, 1], 256), "ok"),
            ]
        )
        recorded = []
        healthy, status = health_probe(
            HealthMonitor(), 3, lambda: next(blocks), lambda *row: recorded.append(row)
        )
        assert not healthy
        assert status == "injection_locked"
        assert [(row[1], row[2] > 0) for row in recorded] == [
            ("ok", False), ("injection_locked", True), ("ok", False)
        ]
        assert health_probe(
            HealthMonitor(), 1, lambda: (np.tile([0, 1], 256), "ok"), lambda *row: None
        ) == (True, "ok")

    def test_log_event_mirrors_into_trace_and_counters(self):
        from repro.telemetry import MemorySink, MetricsRegistry, use_registry, use_sink

        log, sink, registry = EventLog(), MemorySink(), MetricsRegistry()
        event = SupervisorEvent("alarm", 0.5, 512, "online", "alarmed", "tests=apt")
        with use_registry(registry), use_sink(sink):
            log_event(log, event, "demo", "repro.demo")
        assert list(log) == [event]
        (record,) = [r for r in sink.records if r["type"] == "event"]
        assert record["name"] == "demo.alarm"
        assert registry.counter("repro.demo.events").value == 1
        assert registry.counter("repro.demo.alarm").value == 1


class TestEventLog:
    def test_query_helpers(self):
        log = EventLog()
        log.append(SupervisorEvent("startup", 0.0, 0, "startup", "startup"))
        log.append(SupervisorEvent("online", 0.1, 10, "startup", "online"))
        log.append(SupervisorEvent("alarm", 0.2, 20, "online", "alarmed", "tests=rct"))
        assert len(log) == 3
        assert log.kinds() == ["startup", "online", "alarm"]
        assert log.first_of_kind("alarm").bit_position == 20
        assert log.of_kind("missing") == []
        assert log.first_of_kind("missing") is None
        assert log[1].kind == "online"

    def test_render(self):
        log = EventLog()
        log.append(SupervisorEvent("alarm", 0.25, 512, "online", "alarmed", "tests=apt"))
        text = log.render()
        assert "alarm" in text and "online->alarmed" in text and "tests=apt" in text


class TestValidation:
    def test_bad_block_size(self, board):
        with pytest.raises(ValueError):
            SupervisedTrng(IRO5, board=board, block_bits=8)

    def test_bad_budget(self, board):
        with pytest.raises(ValueError):
            SupervisedTrng(IRO5, board=board).run(0)


class TestSupervisedTrng:
    def test_clean_run_goes_online_and_fills_budget(self, board):
        trng = SupervisedTrng(IRO5, board=board)
        result = trng.run(4096, seed=1)
        assert result.final_state is TrngState.ONLINE
        assert result.bit_count >= 4096
        assert result.events.kinds() == ["startup", "online"]
        assert HealthMonitor().check_block(result.bits)
        # ground truth recorded per block
        assert all(record.status == "ok" for record in result.blocks)
        emitted = [record for record in result.blocks if record.emitted]
        assert sum(record.size for record in emitted) == result.bit_count

    def test_brownout_fails_over_to_str_backup(self, board):
        """Acceptance scenario 1: the brownout locks the IRO primary,
        the health tests alarm, recovery walks retry -> restart ->
        failover to the STR spec, and post-failover bits are healthy."""
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(6144, scenario=scheduled(VoltageBrownoutFault(0.95)), seed=11)
        assert result.final_state is TrngState.ONLINE
        kinds = result.events.kinds()
        assert kinds == [
            "startup",
            "online",
            "alarm",
            "retry_failed",
            "retry_failed",
            "ring_restart",
            "restart_failed",
            "failover",
        ]
        failover = result.events.first_of_kind("failover")
        assert failover.detail == "to=STR 48C"
        assert failover.state_to == "online"
        # resumed emission passes check_block
        resumed = result.emitted_bits_after(failover.bit_position)
        assert resumed.size >= 2048
        assert HealthMonitor().check_block(resumed)

    def test_oscillation_death_without_backup_is_total_failure(self, board):
        """Acceptance scenario 2: oscillation death with no viable
        backup ends in TOTAL_FAILURE with zero bits after the alarm."""
        trng = SupervisedTrng(IRO5, board=board)
        result = trng.run(20_000, scenario=scheduled(StuckStageFault()), seed=7)
        assert result.final_state is TrngState.TOTAL_FAILURE
        kinds = result.events.kinds()
        assert kinds[:3] == ["startup", "online", "alarm"]
        assert kinds[-1] == "total_failure"
        assert "failover" not in kinds and "degraded_mode" not in kinds
        assert result.first_alarm_position is not None
        assert result.emitted_after_first_alarm == 0
        assert result.bit_count < 20_000

    def test_total_failure_latches_until_reset(self, board):
        trng = SupervisedTrng(IRO5, board=board)
        trng.run(20_000, scenario=scheduled(StuckStageFault()), seed=7)
        assert trng.state is TrngState.TOTAL_FAILURE
        with pytest.raises(TotalFailureError):
            trng.run(100)
        trng.reset()
        result = trng.run(1024, seed=3)
        assert result.final_state is TrngState.ONLINE
        assert result.bit_count >= 1024

    def test_ripple_attack_failover(self, board):
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(6144, scenario=scheduled(SupplyRippleFault(1.0)), seed=21)
        assert result.final_state is TrngState.ONLINE
        assert result.events.first_of_kind("failover") is not None

    def test_shared_glitch_reaches_degraded_mode(self, board):
        """A shared-net glitch hits every sampler, so failover cannot
        help; the XOR of the two biased survivors is healthy enough
        (EXT10's glitch @ 0.50 cell: onset 0.25 s, cell seed 154)."""
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        scenario = scheduled(GlitchBurstFault(0.5, local=False), start_s=0.25)
        result = trng.run(10_240, scenario=scenario, seed=154)
        kinds = result.events.kinds()
        assert "failover_failed" in kinds
        assert "degraded_mode" in kinds
        degraded = result.events.first_of_kind("degraded_mode")
        assert degraded.detail == "xor(IRO 5C+STR 48C)"
        degraded_blocks = [
            record for record in result.blocks if record.state == "degraded"
        ]
        assert all(record.channel.startswith("xor(") for record in degraded_blocks)

    def test_startup_failure_runs_recovery(self, board):
        """A fault active from t=0 fails the startup test and recovery
        runs before anything is emitted."""
        trng = SupervisedTrng(IRO5, board=board)
        result = trng.run(
            4096, scenario=scheduled(StuckStageFault(), start_s=0.0), seed=41
        )
        assert result.final_state is TrngState.TOTAL_FAILURE
        assert result.bit_count == 0
        assert result.events.kinds()[:2] == ["startup", "alarm"]

    def test_transient_fault_recovers_by_retry(self, board):
        """A short glitch burst clears by itself: bounded retry wins
        without failover."""
        scenario = FaultSchedule(
            [
                ScheduledFault(
                    GlitchBurstFault(1.0, local=True), start_s=0.2, stop_s=0.35
                )
            ],
            name="transient",
        )
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(8192, scenario=scenario, seed=51)
        assert result.final_state is TrngState.ONLINE
        kinds = result.events.kinds()
        assert "alarm" in kinds
        recovered = result.events.first_of_kind("recovered")
        assert recovered is not None and "retry" in recovered.detail
        assert "failover" not in kinds

    def test_alarmed_blocks_never_emitted(self, board):
        trng = SupervisedTrng(IRO5, board=board)
        result = trng.run(20_000, scenario=scheduled(StuckStageFault()), seed=7)
        for record in result.blocks:
            if record.alarm_count > 0:
                assert not record.emitted

    def test_event_log_timeline_is_monotone(self, board):
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(6144, scenario=scheduled(VoltageBrownoutFault(0.95)), seed=11)
        times = [event.time_s for event in result.events]
        positions = [event.bit_position for event in result.events]
        assert times == sorted(times)
        assert positions == sorted(positions)

class TestBackoffSchedule:
    def test_default_is_fixed_wait(self):
        schedule = BackoffSchedule(base_blocks=3)
        assert [schedule.blocks(k) for k in range(6)] == [3] * 6

    def test_exponential_growth(self):
        schedule = BackoffSchedule(base_blocks=2, factor=2.0)
        assert [schedule.blocks(k) for k in range(4)] == [2, 4, 8, 16]

    def test_cap_bounds_growth(self):
        schedule = BackoffSchedule(base_blocks=2, factor=2.0, max_blocks=10)
        assert [schedule.blocks(k) for k in range(6)] == [2, 4, 8, 10, 10, 10]

    def test_jitter_is_deterministic_and_bounded(self):
        schedule = BackoffSchedule(
            base_blocks=100, factor=2.0, max_blocks=10_000, jitter=0.25, seed=42
        )
        first = [schedule.blocks(k) for k in range(8)]
        second = [schedule.blocks(k) for k in range(8)]
        assert first == second  # pure function of (seed, attempt)
        for attempt, waited in enumerate(first):
            raw = min(100 * 2.0**attempt, 10_000.0)
            assert raw * 0.75 - 1 <= waited <= raw * 1.25 + 1
        # The jitter actually perturbs something.
        unjittered = [
            BackoffSchedule(base_blocks=100, factor=2.0, max_blocks=10_000).blocks(k)
            for k in range(8)
        ]
        assert first != unjittered

    def test_different_seeds_decorrelate(self):
        waits_a = [
            BackoffSchedule(base_blocks=1000, jitter=0.5, seed=1).blocks(k)
            for k in range(8)
        ]
        waits_b = [
            BackoffSchedule(base_blocks=1000, jitter=0.5, seed=2).blocks(k)
            for k in range(8)
        ]
        assert waits_a != waits_b

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffSchedule(base_blocks=-1)
        with pytest.raises(ValueError):
            BackoffSchedule(factor=0.5)
        with pytest.raises(ValueError):
            BackoffSchedule(base_blocks=4, max_blocks=2)
        with pytest.raises(ValueError):
            BackoffSchedule(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffSchedule().blocks(-1)


class TestFailoverEdgeCases:
    def test_zero_spare_channels_brownout_is_total_failure(self, board):
        """No backups and a single locked primary: the ladder walks
        retry -> restart and stops — no failover, no degraded rung
        (XOR needs two survivors), TOTAL_FAILURE latched."""
        trng = SupervisedTrng(IRO5, board=board)
        result = trng.run(8192, scenario=scheduled(VoltageBrownoutFault(0.95)), seed=13)
        assert result.final_state is TrngState.TOTAL_FAILURE
        kinds = result.events.kinds()
        assert "retry_failed" in kinds
        assert "restart_failed" in kinds
        assert "failover" not in kinds and "failover_failed" not in kinds
        assert "degraded_mode" not in kinds and "degraded_failed" not in kinds
        assert kinds[-1] == "total_failure"
        assert result.emitted_after_first_alarm == 0

    def test_alarm_during_degraded_mode(self, board):
        """A stronger glitch spike while the XOR set is serving: the
        alarm fires *from* the degraded state, its blocks are withheld,
        and recovery returns to the degraded steady state."""
        scenario = FaultSchedule(
            [
                # EXT10's glitch @ 0.50 cell: a persistent moderate shared
                # glitch pushes past failover into XOR-degraded mode (the
                # survivors' XOR is healthy).
                ScheduledFault(GlitchBurstFault(0.5, local=False), start_s=0.25),
                # A late severe spike the XOR cannot mask.
                ScheduledFault(
                    GlitchBurstFault(0.97, local=False), start_s=1.2, stop_s=1.45
                ),
            ],
            name="degraded_then_spike",
        )
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(40_000, scenario=scenario, seed=154)
        kinds = result.events.kinds()
        assert "degraded_mode" in kinds
        degraded_at = kinds.index("degraded_mode")
        degraded_alarms = [
            event
            for event in result.events
            if event.kind == "alarm" and event.state_from == "degraded"
        ]
        assert degraded_alarms, kinds
        assert result.events.kinds().index("alarm", degraded_at) > degraded_at
        # Withheld while alarmed: no emitted block carries alarms.
        for record in result.blocks:
            if record.alarm_count > 0:
                assert not record.emitted
        # The spike passes; the run ends back in a serving state.
        assert result.final_state in (TrngState.DEGRADED, TrngState.ONLINE)


class TestEventSerialization:
    def test_event_round_trips_through_dict(self):
        event = SupervisorEvent(
            kind="failover",
            time_s=0.125,
            bit_position=4096,
            state_from="alarmed",
            state_to="degraded",
            detail="switched to STR 48C",
        )
        payload = event.to_dict()
        assert json.dumps(payload)  # JSON-able as-is
        assert SupervisorEvent.from_dict(payload) == event

    def test_detail_defaults_when_absent(self):
        payload = {
            "kind": "alarm",
            "time_s": 0.5,
            "bit_position": 512,
            "state_from": "online",
            "state_to": "alarmed",
        }
        assert SupervisorEvent.from_dict(payload).detail == ""

    def test_empty_log_round_trips(self):
        log = EventLog.from_dict(EventLog().to_dict())
        assert len(log) == 0
        assert log.kinds() == []

    def test_multi_kind_log_round_trips(self, board):
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(6144, scenario=scheduled(StuckStageFault()), seed=11)
        original = result.events
        assert len(set(original.kinds())) > 1  # a real multi-kind timeline
        payload = original.to_dict()
        rebuilt = EventLog.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.kinds() == original.kinds()
        assert list(rebuilt) == list(original)
        assert rebuilt.render() == original.render()


def run_digest(result):
    """SHA-256 of a run's event log plus its emitted bits."""
    digest = hashlib.sha256(
        json.dumps(result.events.to_dict(), sort_keys=True).encode()
    )
    digest.update(np.asarray(result.bits, dtype=np.uint8).tobytes())
    return digest.hexdigest()


class TestPinnedRuns:
    """Two recovery paths pinned event for event and bit for bit."""

    def test_brownout_failover(self, board):
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        result = trng.run(6144, scenario=scheduled(VoltageBrownoutFault(0.95)), seed=11)
        assert "failover" in result.events.kinds()
        assert run_digest(result) == (
            "ed1f2c41d608479db464825982fa3758fa0ce3c81403cc89e538d17bb5d8ad77"
        )

    def test_shared_glitch_degraded_mode(self, board):
        # EXT10's glitch @ 0.50 cell: onset 0.25 s, cell seed 154.
        trng = SupervisedTrng(IRO5, backups=(STR48,), board=board)
        scenario = scheduled(standard_fault("glitch", 0.5), start_s=0.25)
        result = trng.run(10_240, scenario=scenario, seed=154)
        assert result.final_state is TrngState.DEGRADED
        assert "degraded_mode" in result.events.kinds()
        assert run_digest(result) == (
            "444876fb0739b8850bc2f2e1bde3a5d6022f2179ce2c9f40a3aa6d0d48d6d3c5"
        )

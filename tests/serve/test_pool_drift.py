"""The pool's drift plane: monitors, pre-emptive quarantine, gauges."""

from repro.core.campaign import RingSpec
from repro.obs.drift import ChannelDriftMonitor, DriftSignal
from repro.serve.pool import ChannelState, TrngPool
from repro.telemetry import default_registry

IRO5 = RingSpec("iro", 5)
STR48 = RingSpec("str", 48)


class _ScriptedMonitor:
    """Drift-monitor stand-in that fires on a scripted block index."""

    def __init__(self, channel, fire_at):
        self.channel = channel
        self.fire_at = fire_at
        self.observed = 0
        self.resets = 0

    def observe_block(self, bits, t_s, alarm_count=0):
        index = self.observed
        self.observed += 1
        if index != self.fire_at:
            return []
        return [
            DriftSignal(
                channel=self.channel,
                statistic="bias",
                detector="ewma",
                time_s=t_s,
                block_index=index,
                value=0.04,
                score=7.0,
                threshold=6.0,
            )
        ]

    def reset(self):
        self.resets += 1


def _scripted_pool(fire_at=2, preemptive=True, **kwargs):
    pool = TrngPool([IRO5, STR48], seed=3, **kwargs)
    pool.attach_drift_monitors(preemptive_quarantine=preemptive)
    name = pool.channels[0].name
    monitor = _ScriptedMonitor(name, fire_at=fire_at)
    pool._drift_monitors[name] = monitor
    return pool, name, monitor


class TestAttach:
    def test_attach_creates_one_monitor_per_channel(self):
        pool = TrngPool([IRO5, STR48], seed=3)
        assert pool._drift_monitors.get("anything") is None
        pool.attach_drift_monitors()
        for channel in pool.channels:
            monitor = pool._drift_monitors.get(channel.name)
            assert isinstance(monitor, ChannelDriftMonitor)
            assert monitor.channel == channel.name

    def test_served_blocks_feed_the_monitors(self):
        pool = TrngPool([IRO5, STR48], seed=3)
        pool.attach_drift_monitors()
        pool.get_bytes(512)
        fed = sum(
            pool._drift_monitors.get(channel.name).block_index
            for channel in pool.channels
        )
        served = sum(1 for entry in pool.ledger if entry.purpose == "serve")
        assert fed == served > 0

    def test_monitor_timestamps_ride_the_pool_clock(self):
        pool = TrngPool([IRO5], seed=3)
        pool.attach_drift_monitors(preemptive_quarantine=False)
        pool.get_bytes(256)
        # Healthy pool, telemetry off by default in the monitor? No —
        # signals list stays empty on a healthy stream, which is the
        # deterministic-clock claim worth asserting here.
        assert pool._drift_monitors.get(pool.channels[0].name).signals == []


class TestPreemptiveQuarantine:
    def test_signal_quarantines_and_discards_the_block(self):
        pool, name, monitor = _scripted_pool(fire_at=2)
        data = pool.get_bytes(4096)
        assert len(data) == 4096
        # The channel was quarantined (it may have been re-admitted by
        # the backoff ladder before the request finished).
        assert any(
            e.kind == "quarantine" and name in e.detail for e in pool.events
        )
        # The triggering block was recorded but never emitted and —
        # crucially for the chaos SLO — carries no alarms.
        discarded = [
            e
            for e in pool.ledger
            if e.channel == name and e.purpose == "serve" and not e.emitted
        ]
        assert discarded and all(e.alarm_count == 0 for e in discarded)
        assert pool.unhealthy_emitted_blocks() == 0

    def test_quarantine_event_names_the_drifting_statistic(self):
        pool, name, _monitor = _scripted_pool(fire_at=0)
        pool.get_bytes(1024)
        drift_events = [
            e for e in pool.events if e.kind == "quarantine" and "drift:" in e.detail
        ]
        assert drift_events
        assert "bias/ewma" in drift_events[0].detail

    def test_quarantine_counter_increments(self):
        pool, _name, _monitor = _scripted_pool(fire_at=1)
        pool.get_bytes(1024)
        snapshot = default_registry().snapshot()
        assert snapshot.counters["repro.serve.pool.drift_quarantines"] == 1

    def test_quarantine_resets_the_drift_monitor(self):
        # Re-admission starts a fresh baseline: stale charts would
        # instantly re-quarantine a recovered channel.
        pool, _name, monitor = _scripted_pool(fire_at=0)
        pool.get_bytes(1024)
        assert monitor.resets == 1

    def test_observe_only_mode_never_quarantines(self):
        pool, name, _monitor = _scripted_pool(fire_at=0, preemptive=False)
        pool.get_bytes(2048)
        channel = next(c for c in pool.channels if c.name == name)
        assert channel.state is ChannelState.HEALTHY
        assert not any("drift:" in e.detail for e in pool.events)


class TestChannelGauges:
    def test_per_channel_state_and_flap_gauges_published(self):
        pool, name, _monitor = _scripted_pool(fire_at=0)
        # One block's worth: the drifting channel is quarantined on the
        # walk and has no time to be re-admitted before the request ends.
        pool.get_bytes(64)
        gauges = default_registry().snapshot().gauges
        assert gauges[f"repro.serve.pool.channel.{name}.state"] == 1.0
        assert gauges[f"repro.serve.pool.channel.{name}.flaps"] == 1.0
        healthy_name = pool.channels[1].name
        assert gauges[f"repro.serve.pool.channel.{healthy_name}.state"] == 0.0

    def test_state_codes_cover_the_lifecycle(self):
        codes = TrngPool._CHANNEL_STATE_CODES
        assert codes[ChannelState.HEALTHY] == 0.0
        assert codes[ChannelState.QUARANTINED] == 1.0
        assert codes[ChannelState.TRIPPED] == 2.0

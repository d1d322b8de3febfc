"""Health-gated TRNG channel pool: failover, backoff, circuit breaker.

A :class:`TrngPool` owns several :class:`~repro.trng.supervisor.RingChannel`
bit sources and turns them into one stream of *health-gated* bytes:

* every sampled block passes through that channel's streaming SP 800-90B
  :class:`~repro.trng.health.HealthMonitor` **before** any of its bytes
  may be buffered — an alarmed block is discarded, always;
* a channel whose block alarms is **quarantined** and the pool fails
  over to the next healthy channel (round-robin);
* quarantined channels are **re-admitted** only after passing a probe
  (``probe_blocks`` clean blocks through a fresh monitor), scheduled by
  bounded exponential backoff with deterministic jitter
  (:class:`~repro.trng.supervisor.BackoffSchedule` — the same schedule
  the supervisor's retry rung uses);
* a channel that flaps (gets quarantined) more than ``max_flaps`` times
  trips a **circuit breaker** and is retired for good;
* when fewer than ``min_healthy`` channels remain the pool reports
  **brownout** — the server degrades to smaller grants, never to
  unhealthy bytes;
* with *no* serviceable channel, :meth:`TrngPool.get_bytes` raises
  :class:`PoolExhaustedError` and the pool clock ticks idle so windowed
  fault scenarios still expire.

Every transition lands in the same structured
:class:`~repro.trng.supervisor.EventLog` the supervisor uses (kinds
``quarantine``, ``readmit``, ``readmit_failed``, ``circuit_open``,
``fault_injected``, ``fault_cleared``), and a :class:`LedgerEntry` per
sampled block records the ground truth the chaos harness asserts on:
zero emitted blocks with alarms.  The ledger keeps a bounded window of
the most recent ``LEDGER_WINDOW`` entries; the entry count and the
unhealthy-emitted count are running counters, exact over the pool's
whole life, so memory does not grow with uptime.

While the pool is nominal (no fault scenario, no drift monitors, no
quarantined channel, every healthy channel resolving ``"ok"``),
:meth:`TrngPool.get_bytes` draws all the blocks it still needs in one
vectorised pass and health-tests each channel's share in one
:meth:`~repro.trng.health.HealthMonitor.ingest`.  A clean pass commits
exactly what the block-by-block walk would have produced; a pass with
any alarm is rolled back (RNG and monitor state) and its blocks are
produced again one at a time by :meth:`TrngPool.produce_block`, so an
alarmed block is still discarded and its channel quarantined at the
same block.

Registry gauges (healthy/quarantined/tripped/brownout and the
per-channel state and flap gauges) are published at construction and on
every state transition; a steady run of clean blocks writes none.

Faults are injected as :class:`~repro.faults.base.FaultScenario` values
against the pool's deterministic clock (bits sampled x reference
period), exactly like the supervised runtime — so a brownout/glitch
storm drives the pool the same way it drives EXT10, independent of
wall-clock scheduling.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import itertools
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.base import NOMINAL_EFFECT, FaultEffect, FaultScenario
from repro.fpga.board import Board
from repro.simulation.noise import SeedLike, make_rng
from repro.telemetry import default_registry, emit_event
from repro.trng.health import HealthMonitor
from repro.trng.phasewalk import PhaseWalkTrng, generate_rows
from repro.trng.supervisor import BackoffSchedule, EventLog, RingChannel, SupervisorEvent


# Entries kept in ``TrngPool.ledger``; older ones leave the window.
LEDGER_WINDOW = 4096

# Bits one vectorised pass draws at most (its phase matrix is 8 bytes a
# bit), so a large request is served in several passes.
_PASS_BITS = 1 << 18


class PoolExhaustedError(RuntimeError):
    """No healthy channel could produce a gated block."""


class ChannelState(enum.Enum):
    """Lifecycle of one pool channel."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    TRIPPED = "tripped"  # circuit breaker open: retired for good


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tuning of the pool's robustness machinery."""

    block_bits: int = 512
    claimed_min_entropy: float = 0.9
    window: int = 512
    q_target: float = 0.2
    probe_blocks: int = 2
    backoff: BackoffSchedule = BackoffSchedule(
        base_blocks=2, factor=2.0, max_blocks=64, jitter=0.25, seed=0
    )
    max_flaps: int = 8
    min_healthy: int = 2

    def __post_init__(self) -> None:
        if self.block_bits < 16:
            raise ValueError(f"block size must be at least 16 bits, got {self.block_bits}")
        if self.block_bits % 8 != 0:
            raise ValueError(f"block size must be a whole byte count, got {self.block_bits}")
        if self.probe_blocks < 1:
            raise ValueError(f"need at least one probe block, got {self.probe_blocks}")
        if self.max_flaps < 1:
            raise ValueError(f"max flaps must be positive, got {self.max_flaps}")
        if self.min_healthy < 1:
            raise ValueError(f"min healthy must be positive, got {self.min_healthy}")


@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """Ground truth for one sampled block (mirrors ``BlockRecord``).

    ``status`` is the channel's *physical* condition during the block —
    which the pool never consults for gating; gating is the health
    tests' job.  Keeping both lets the chaos harness assert the SLO
    honestly: an emitted entry must have ``alarm_count == 0``.
    ``index`` counts every entry the pool ever recorded, so it stays
    continuous after older entries leave the ledger window.
    """

    index: int
    time_s: float
    channel: str
    purpose: str  # "serve" | "probe"
    status: str
    alarm_count: int
    emitted: bool


# A ledger row as the pool stores it: the fields of ``LedgerEntry``.
_LedgerRow = Tuple[int, float, str, str, str, int, bool]


class PoolChannel:
    """One pool slot: a ring channel plus its supervision state."""

    def __init__(
        self, name: str, spec: Any, board: Board, config: PoolConfig
    ) -> None:
        self.name = name
        self.ring = RingChannel(spec, board, q_target=config.q_target)
        self.monitor = HealthMonitor(
            claimed_min_entropy=config.claimed_min_entropy, window=config.window
        )
        self.state = ChannelState.HEALTHY
        self.flap_count = 0  # times quarantined over the channel's life
        self.backoff_attempt = 0  # consecutive failed re-admission probes
        self.eligible_at_s = 0.0  # pool time of the next re-admission probe
        self.block_period_s = config.block_bits * self.ring.reference_period_ps * 1e-12


class TrngPool:
    """A failover pool of health-gated ring channels (see module docstring).

    Parameters
    ----------
    specs:
        Ring specs (``RingSpec``-alikes); duplicates are fine — channel
        names are suffixed with their slot index.
    board:
        The board every channel resolves on; defaults to nominal.
    config:
        Robustness tuning (:class:`PoolConfig`).
    seed:
        Seed of the pool's single sampling RNG.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        board: Optional[Board] = None,
        config: PoolConfig = PoolConfig(),
        seed: SeedLike = None,
    ) -> None:
        if not specs:
            raise ValueError("a pool needs at least one channel spec")
        self._board = board if board is not None else Board()
        self._config = config
        self._rng = make_rng(seed)
        self.channels: List[PoolChannel] = [
            PoolChannel(
                f"{getattr(spec, 'label', repr(spec))}#{index}",
                spec,
                self._board,
                config,
            )
            for index, spec in enumerate(specs)
        ]
        self.events = EventLog()
        self._ledger: Deque[_LedgerRow] = collections.deque(maxlen=LEDGER_WINDOW)
        self._ledger_total = 0
        self._unhealthy_emitted = 0
        self._buffer = bytearray()
        self._time_s = 0.0
        self._blocks_sampled = 0
        self._rr_offset = 0
        self._scenario: Optional[FaultScenario] = None
        self._scenario_epoch_s = 0.0
        self.bytes_emitted = 0
        self._idle_tick_s = max(channel.block_period_s for channel in self.channels)
        self._drift_monitors: Dict[str, Any] = {}
        self._drift_quarantine = False
        self._update_gauges()

    # ------------------------------------------------------------------
    # drift plane
    # ------------------------------------------------------------------
    def attach_drift_monitors(
        self,
        statistics: Optional[Sequence[Any]] = None,
        preemptive_quarantine: bool = True,
    ) -> None:
        """Run ``repro.obs`` drift charts over every channel's blocks.

        Each served block (alarmed or not) feeds the channel's
        :class:`~repro.obs.drift.ChannelDriftMonitor`; when
        ``preemptive_quarantine`` is set, a chart crossing quarantines
        the channel through the ordinary ladder *before* the AIS-31
        tests would have tripped — the block that raised the signal is
        discarded, never emitted.  Timestamps ride the pool's
        deterministic clock, so drift drills replay exactly.
        """
        from repro.obs.drift import DEFAULT_STATISTICS, ChannelDriftMonitor

        stats = DEFAULT_STATISTICS if statistics is None else tuple(statistics)
        self._drift_monitors = {
            channel.name: ChannelDriftMonitor(channel.name, stats)
            for channel in self.channels
        }
        self._drift_quarantine = bool(preemptive_quarantine)

    def _drift_observe(self, channel: "PoolChannel", bits: Any, alarm_count: int):
        monitor = self._drift_monitors.get(channel.name)
        if monitor is None:
            return []
        return monitor.observe_block(bits, self._time_s, alarm_count)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> PoolConfig:
        return self._config

    @property
    def time_s(self) -> float:
        """The pool's deterministic clock (advances with sampling)."""
        return self._time_s

    def channels_in(self, state: ChannelState) -> List[PoolChannel]:
        return [channel for channel in self.channels if channel.state is state]

    @property
    def healthy_count(self) -> int:
        return len(self.channels_in(ChannelState.HEALTHY))

    @property
    def brownout(self) -> bool:
        """Healthy capacity below the configured floor."""
        return self.healthy_count < self._config.min_healthy

    @property
    def ledger(self) -> List[LedgerEntry]:
        """The most recent ``LEDGER_WINDOW`` entries, oldest first.

        The window stores plain tuples; the entries are built on read.
        """
        return [LedgerEntry(*row) for row in self._ledger]

    @property
    def ledger_total(self) -> int:
        """Entries recorded over the pool's life (the ledger holds the
        most recent ``LEDGER_WINDOW`` of them)."""
        return self._ledger_total

    def unhealthy_emitted_blocks(self) -> int:
        """Emitted blocks that carried alarms — the SLO demands zero.

        A running counter over the pool's whole life, not a scan of the
        ledger window.
        """
        return self._unhealthy_emitted

    def status(self) -> Dict[str, Any]:
        """JSON-able pool snapshot (served on STATUS frames)."""
        return {
            "channels": {
                channel.name: {
                    "state": channel.state.value,
                    "flaps": channel.flap_count,
                    "eligible_at_s": channel.eligible_at_s,
                }
                for channel in self.channels
            },
            "healthy": self.healthy_count,
            "quarantined": len(self.channels_in(ChannelState.QUARANTINED)),
            "tripped": len(self.channels_in(ChannelState.TRIPPED)),
            "brownout": self.brownout,
            "bytes_emitted": self.bytes_emitted,
            "blocks_sampled": self._blocks_sampled,
            "unhealthy_emitted_blocks": self.unhealthy_emitted_blocks(),
            "time_s": self._time_s,
            "fault_active": self._scenario is not None,
        }

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject(self, scenario: FaultScenario) -> None:
        """Drive the pool with a fault scenario from the current pool time."""
        self._scenario = scenario
        self._scenario_epoch_s = self._time_s
        self._log("fault_injected", detail=scenario.describe())

    def clear_fault(self) -> None:
        if self._scenario is not None:
            self._log("fault_cleared", detail=self._scenario.describe())
        self._scenario = None

    def _effect(self) -> FaultEffect:
        if self._scenario is None:
            return NOMINAL_EFFECT
        return self._scenario.effect_at(self._time_s - self._scenario_epoch_s)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _log(self, kind: str, detail: str = "", state_from: str = "", state_to: str = "") -> None:
        event = SupervisorEvent(
            kind=kind,
            time_s=self._time_s,
            bit_position=self._blocks_sampled * self._config.block_bits,
            state_from=state_from,
            state_to=state_to,
            detail=detail,
        )
        self.events.append(event)
        emit_event(f"serve.pool.{kind}", **event.to_dict())
        registry = default_registry()
        registry.counter("repro.serve.pool.events").inc()
        registry.counter(f"repro.serve.pool.{kind}").inc()

    _CHANNEL_STATE_CODES = {
        ChannelState.HEALTHY: 0.0,
        ChannelState.QUARANTINED: 1.0,
        ChannelState.TRIPPED: 2.0,
    }

    def _update_gauges(self) -> None:
        registry = default_registry()
        registry.gauge("repro.serve.pool.healthy").set(self.healthy_count)
        registry.gauge("repro.serve.pool.quarantined").set(
            len(self.channels_in(ChannelState.QUARANTINED))
        )
        registry.gauge("repro.serve.pool.tripped").set(
            len(self.channels_in(ChannelState.TRIPPED))
        )
        registry.gauge("repro.serve.pool.brownout").set(1.0 if self.brownout else 0.0)
        # Per-channel state/flap gauges: the dashboard's channel panel.
        # Codes: 0 healthy, 1 quarantined, 2 tripped (circuit open).
        for channel in self.channels:
            prefix = f"repro.serve.pool.channel.{channel.name}"
            registry.gauge(f"{prefix}.state").set(
                self._CHANNEL_STATE_CODES[channel.state]
            )
            registry.gauge(f"{prefix}.flaps").set(channel.flap_count)

    def _record(
        self, channel: PoolChannel, purpose: str, status: str, alarms: int, emitted: bool
    ) -> None:
        if emitted and alarms > 0:
            self._unhealthy_emitted += 1
        self._ledger.append(
            (self._ledger_total, self._time_s, channel.name, purpose, status, alarms, emitted)
        )
        self._ledger_total += 1

    def _sample(self, channel: PoolChannel) -> tuple:
        """Sample one block from ``channel`` under the active effect."""
        effect = self._effect()
        apply_upsets = (not effect.upset_local) or channel is self.channels[0]
        bits, status = channel.ring.sample_block(
            self._config.block_bits, self._rng, effect, apply_upsets=apply_upsets
        )
        self._time_s += channel.block_period_s
        self._blocks_sampled += 1
        return bits, status

    # ------------------------------------------------------------------
    # quarantine / re-admission / circuit breaker
    # ------------------------------------------------------------------
    def _quarantine(self, channel: PoolChannel, reason: str) -> None:
        state_from = channel.state.value
        channel.flap_count += 1
        channel.monitor.reset()
        drift = self._drift_monitors.get(channel.name)
        if drift is not None:
            drift.reset()
        if channel.flap_count > self._config.max_flaps:
            channel.state = ChannelState.TRIPPED
            self._log(
                "circuit_open",
                detail=f"channel={channel.name} flaps={channel.flap_count} "
                f"max={self._config.max_flaps}",
                state_from=state_from,
                state_to=ChannelState.TRIPPED.value,
            )
        else:
            channel.state = ChannelState.QUARANTINED
            channel.backoff_attempt = 0
            wait_blocks = self._config.backoff.blocks(0)
            channel.eligible_at_s = self._time_s + wait_blocks * channel.block_period_s
            self._log(
                "quarantine",
                detail=f"channel={channel.name} reason={reason} "
                f"flap={channel.flap_count} wait_blocks={wait_blocks}",
                state_from=state_from,
                state_to=ChannelState.QUARANTINED.value,
            )
        self._update_gauges()

    def _probe(self, channel: PoolChannel) -> bool:
        """Health-check ``probe_blocks`` fresh blocks; bits are discarded."""
        monitor = HealthMonitor(
            claimed_min_entropy=self._config.claimed_min_entropy,
            window=self._config.window,
        )
        healthy = True
        for _ in range(self._config.probe_blocks):
            bits, status = self._sample(channel)
            alarms = monitor.ingest(bits)
            self._record(channel, "probe", status, len(alarms), False)
            if alarms:
                healthy = False
        return healthy

    def _try_readmit(self) -> None:
        """Probe every quarantined channel whose backoff has expired."""
        probed = False
        for channel in self.channels:
            if channel.state is not ChannelState.QUARANTINED:
                continue
            if self._time_s < channel.eligible_at_s:
                continue
            probed = True
            if self._probe(channel):
                channel.state = ChannelState.HEALTHY
                channel.backoff_attempt = 0
                channel.monitor.reset()
                self._log(
                    "readmit",
                    detail=f"channel={channel.name} flap={channel.flap_count}",
                    state_from=ChannelState.QUARANTINED.value,
                    state_to=ChannelState.HEALTHY.value,
                )
            else:
                channel.backoff_attempt += 1
                wait_blocks = self._config.backoff.blocks(channel.backoff_attempt)
                channel.eligible_at_s = (
                    self._time_s + wait_blocks * channel.block_period_s
                )
                self._log(
                    "readmit_failed",
                    detail=f"channel={channel.name} "
                    f"attempt={channel.backoff_attempt} wait_blocks={wait_blocks}",
                    state_from=ChannelState.QUARANTINED.value,
                    state_to=ChannelState.QUARANTINED.value,
                )
        if probed:
            self._update_gauges()

    # ------------------------------------------------------------------
    # production
    # ------------------------------------------------------------------
    def produce_block(self) -> Optional[np.ndarray]:
        """One health-gated block, or ``None`` when the pool is exhausted.

        Walks the healthy channels round-robin; a channel whose block
        alarms is quarantined on the spot and the walk continues.  On
        full exhaustion the pool clock ticks idle (so windowed fault
        scenarios expire even with nothing to sample) and re-admission
        is re-attempted on the next call.
        """
        self._try_readmit()
        healthy = self.channels_in(ChannelState.HEALTHY)
        count = len(healthy)
        for step in range(count):
            channel = healthy[(self._rr_offset + step) % count]
            bits, status = self._sample(channel)
            alarms = channel.monitor.ingest(bits)
            signals = self._drift_observe(channel, bits, len(alarms))
            if alarms:
                self._record(channel, "serve", status, len(alarms), False)
                tests = ",".join(sorted({alarm.test_name for alarm in alarms}))
                self._quarantine(channel, reason=f"tests={tests} status={status}")
                default_registry().counter("repro.serve.pool.alarms").inc(len(alarms))
                continue
            if signals and self._drift_quarantine:
                # Pre-emptive quarantine: the charts flagged a drift the
                # health tests have not (yet) tripped on.  Discard the
                # block — a drifting channel's bytes are not worth the
                # doubt — and walk on to the next healthy channel.
                self._record(channel, "serve", status, 0, False)
                reasons = ",".join(
                    sorted({f"{s.statistic}/{s.detector}" for s in signals})
                )
                self._quarantine(channel, reason=f"drift:{reasons}")
                default_registry().counter(
                    "repro.serve.pool.drift_quarantines"
                ).inc()
                continue
            self._record(channel, "serve", status, 0, True)
            self._rr_offset = (self._rr_offset + step + 1) % count
            default_registry().counter("repro.serve.pool.blocks_emitted").inc()
            return bits
        # Exhausted: no healthy channel survived this walk.
        self._time_s += self._idle_tick_s
        default_registry().counter("repro.serve.pool.exhausted").inc()
        return None

    def _nominal_channels(self) -> Optional[List[Tuple[PoolChannel, PhaseWalkTrng]]]:
        """The healthy channels and their models when a vectorised pass
        can stand in for :meth:`produce_block`, else ``None``."""
        if self._scenario is not None or self._drift_monitors:
            return None
        healthy: List[Tuple[PoolChannel, PhaseWalkTrng]] = []
        for channel in self.channels:
            if channel.state is ChannelState.QUARANTINED:
                return None  # a re-admission probe may be due
            if channel.state is ChannelState.HEALTHY:
                _, model = channel.ring.resolve(NOMINAL_EFFECT)
                if model is None:  # the status is not "ok"
                    return None
                healthy.append((channel, model))
        return healthy or None

    def _produce_pass(
        self, healthy: List[Tuple[PoolChannel, PhaseWalkTrng]], rows: int
    ) -> bool:
        """Buffer ``rows`` gated blocks in one pass; ``False`` on a rollback.

        Block ``j`` comes from the channel the round-robin walk would
        visit ``j`` blocks on, and each channel's monitor ingests its
        blocks in order as one chunk (alarms do not depend on chunking).
        Any alarm restores the RNG and every monitor, and the caller
        produces these blocks with :meth:`produce_block` instead.
        """
        count = len(healthy)
        walk = [healthy[(self._rr_offset + j) % count] for j in range(rows)]
        rng_state = self._rng.bit_generator.state
        bits = generate_rows([model for _, model in walk], self._config.block_bits, self._rng)
        # (channel, its first row); it serves every count-th row on
        shares: List[Tuple[PoolChannel, int]] = []
        for slot, (channel, _) in enumerate(healthy):
            first = (slot - self._rr_offset) % count
            if first < rows:
                shares.append((channel, first))
        snapshots = [channel.monitor.snapshot() for channel, _ in shares]
        for channel, first in shares:
            if channel.monitor.ingest(bits[first::count].ravel()):
                self._rng.bit_generator.state = rng_state
                for (owner, _), snapshot in zip(shares, snapshots):
                    owner.monitor.restore(snapshot)
                default_registry().counter("repro.serve.pool.batch_rollbacks").inc()
                return False
        for channel, first in shares:
            # The output latch holds the channel's last sampled bit, as
            # RingChannel.sample_block leaves it.
            last = first + (rows - 1 - first) // count * count
            channel.ring._held_bit = int(bits[last, -1])
        times = list(
            itertools.accumulate(
                (channel.block_period_s for channel, _ in walk), initial=self._time_s
            )
        )
        base = self._ledger_total
        self._ledger.extend(
            (base + j, times[j + 1], walk[j][0].name, "serve", "ok", 0, True)
            for j in range(max(0, rows - LEDGER_WINDOW), rows)
        )
        self._ledger_total += rows
        self._time_s = times[-1]
        self._blocks_sampled += rows
        self._rr_offset = (self._rr_offset + rows) % count
        default_registry().counter("repro.serve.pool.blocks_emitted").inc(rows)
        self._buffer.extend(np.packbits(bits, axis=1).tobytes())
        return True

    def get_bytes(self, count: int) -> bytes:
        """Return ``count`` health-gated bytes, producing blocks as needed.

        A nominal pool produces them in vectorised passes (see the module
        docstring); otherwise, and after a rolled-back pass, block by
        block.  Raises :class:`PoolExhaustedError` when no healthy
        channel is available; bytes already gated stay buffered for the
        next call.
        """
        if count < 1:
            raise ValueError(f"byte count must be positive, got {count}")
        block_bytes = self._config.block_bits // 8
        pass_rows = max(1, _PASS_BITS // self._config.block_bits)
        while len(self._buffer) < count:
            rows = min(-(-(count - len(self._buffer)) // block_bytes), pass_rows)
            healthy = self._nominal_channels()
            if healthy is None:
                rows = 1
            elif self._produce_pass(healthy, rows):
                continue
            for _ in range(rows):
                block = self.produce_block()
                if block is None:
                    raise PoolExhaustedError(
                        f"no healthy channel (healthy=0, "
                        f"quarantined={len(self.channels_in(ChannelState.QUARANTINED))}, "
                        f"tripped={len(self.channels_in(ChannelState.TRIPPED))})"
                    )
                self._buffer.extend(np.packbits(block.astype(np.uint8)).tobytes())
        out = bytes(self._buffer[:count])
        del self._buffer[:count]
        self.bytes_emitted += count
        default_registry().counter("repro.serve.pool.bytes_emitted").inc(count)
        return out

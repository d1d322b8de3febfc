"""Supervised TRNG runtime: health-monitored generation with recovery.

The rest of the library *measures* robustness; this module *enforces*
it.  A :class:`SupervisedTrng` wraps one or more ring-backed generators
behind an AIS-31-style state machine::

    STARTUP -> ONLINE -> ALARMED -> (ONLINE | DEGRADED | TOTAL_FAILURE)

Bits are produced block by block; every block passes through the
SP 800-90B :class:`~repro.trng.health.HealthMonitor` *before* it may be
emitted, and a raised alarm triggers a configurable recovery ladder
(:class:`RecoveryPolicy`):

1. **bounded retry with backoff** — discard blocks and re-sample (a
   transient disturbance clears itself);
2. **ring restart** — power-cycle the source (breaks latch-up, not a
   persistent environmental fault);
3. **failover** — bring up a backup ring spec (the paper's punchline:
   an STR backup survives the operating-point shifts that kill an IRO);
4. **XOR-degraded mode** — combine every surviving ring's output, the
   last line of defence when each single source is marginal;
5. **total failure** — a hard stop that refuses to emit bits.

Every transition is appended to a structured :class:`EventLog`, so both
tests and the EXT10 coverage campaign can assert on *exact* recovery
sequences rather than on summary statistics.

Fault translation
-----------------
Faults arrive as :class:`~repro.faults.base.FaultEffect` values — pure
environmental stress.  A :class:`RingChannel` translates the effect into
behaviour through the wrapped ring's own figures:

* supply / temperature overrides re-resolve the ring on the board
  (:meth:`Board.with_supply`), moving the operating point exactly as the
  Fig. 8 / EXT6 sweeps do; an operating point outside the delay model's
  validity range means the ring cannot sustain oscillation;
* an injection strength is weighted by the ring's
  ``mean_supply_weight``; past :data:`LOCK_THRESHOLD` the ring
  injection-locks and its sampled output freezes (the phase-diffusion
  collapse of a locked oscillator) — the mechanism through which the
  same brownout kills an IRO (weight ~0.97) but not an STR (~0.78);
* temperatures above :data:`THERMAL_UPSET_C` collapse the oscillation
  margin entirely;
* sampler upsets force captured bits downstream of the ring.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.base import NOMINAL_EFFECT, FaultEffect, FaultScenario
from repro.fpga.board import Board
from repro.fpga.voltage import SupplySpec
from repro.simulation.noise import SeedLike, make_rng
from repro.telemetry import default_registry, emit_event, span
from repro.text_table import aligned_table
from repro.trng.health import HealthMonitor
from repro.trng.phasewalk import PhaseWalkTrng, reference_period_for_q

#: A ring whose ``mean_supply_weight * injection_strength`` reaches this
#: value locks to the aggressor and stops producing entropy.
LOCK_THRESHOLD: float = 0.85

#: Junction temperature above which the oscillation margin collapses.
THERMAL_UPSET_C: float = 120.0


class TrngState(enum.Enum):
    """AIS-31-style supervision states."""

    STARTUP = "startup"
    ONLINE = "online"
    ALARMED = "alarmed"
    DEGRADED = "degraded"
    TOTAL_FAILURE = "total_failure"


class TotalFailureError(RuntimeError):
    """Raised when bits are requested from a totally failed generator."""


@dataclasses.dataclass(frozen=True)
class SupervisorEvent:
    """One entry of the structured supervision log."""

    kind: str
    time_s: float
    bit_position: int
    state_from: str
    state_to: str
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SupervisorEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            kind=str(payload["kind"]),
            time_s=float(payload["time_s"]),
            bit_position=int(payload["bit_position"]),
            state_from=str(payload["state_from"]),
            state_to=str(payload["state_to"]),
            detail=str(payload.get("detail", "")),
        )


class EventLog:
    """Append-only, queryable log of supervisor events."""

    def __init__(self) -> None:
        self._events: List[SupervisorEvent] = []

    def append(self, event: SupervisorEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def kinds(self) -> List[str]:
        """The event kinds in order — the recovery sequence tests assert on."""
        return [event.kind for event in self._events]

    def of_kind(self, kind: str) -> List[SupervisorEvent]:
        return [event for event in self._events if event.kind == kind]

    def first_of_kind(self, kind: str) -> Optional[SupervisorEvent]:
        for event in self._events:
            if event.kind == kind:
                return event
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {"events": [event.to_dict() for event in self._events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EventLog":
        """Rebuild a log from :meth:`to_dict` output (order preserved)."""
        log = cls()
        for entry in payload.get("events", []):
            log.append(SupervisorEvent.from_dict(entry))
        return log

    def render(self) -> str:
        """Aligned plain-text table of the whole log."""
        header = ("t [s]", "bit", "event", "state", "detail")
        rows = [header]
        for event in self._events:
            transition = (
                event.state_to
                if event.state_from == event.state_to
                else f"{event.state_from}->{event.state_to}"
            )
            rows.append(
                (
                    f"{event.time_s:.3f}",
                    str(event.bit_position),
                    event.kind,
                    transition,
                    event.detail,
                )
            )
        return aligned_table(rows)


@dataclasses.dataclass(frozen=True)
class BlockRecord:
    """Per-block ground truth kept alongside the event log.

    ``status`` is the *physical* condition of the source during the
    block ("ok", "injection_locked", ...), which the runtime itself
    never sees — detection must come from the health tests.  Keeping
    both lets EXT10 measure detection latency honestly.
    """

    index: int
    position: int
    size: int
    time_s: float
    state: str
    channel: str
    status: str
    alarm_count: int
    emitted: bool
    ones: int


@dataclasses.dataclass(frozen=True)
class BlockObservation:
    """One sampled block as seen by a :attr:`SupervisedTrng.block_observer`.

    The observer hook is how the drift plane (:mod:`repro.obs.drift`)
    watches a supervised run without the supervisor importing it: every
    sampled block — probe or serve, emitted or discarded — is handed
    over with its bits, the stream clock, and the health verdict.
    """

    bits: np.ndarray
    time_s: float
    position: int
    channel: str
    status: str
    alarm_count: int
    emitted: bool


#: Signature of the per-block observer hook.
BlockObserver = Callable[[BlockObservation], None]


@dataclasses.dataclass(frozen=True)
class BackoffSchedule:
    """Bounded exponential backoff with deterministic jitter, in blocks.

    Attempt ``k`` (0-based) waits ``base_blocks * factor**k`` blocks,
    capped at ``max_blocks``, then scaled by a jitter factor drawn
    uniformly from ``[1 - jitter, 1 + jitter]``.  The jitter draw is a
    pure function of ``(seed, attempt)``, so a replayed run waits the
    exact same schedule — randomized enough to de-synchronize a fleet,
    deterministic enough for claims-as-code.

    The default (``factor=1.0, jitter=0.0``) degenerates to a fixed
    wait of ``base_blocks`` per attempt.
    """

    base_blocks: int = 1
    factor: float = 1.0
    max_blocks: Optional[int] = None
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_blocks < 0:
            raise ValueError(f"base blocks must be non-negative, got {self.base_blocks}")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if self.max_blocks is not None and self.max_blocks < self.base_blocks:
            raise ValueError(
                f"max blocks ({self.max_blocks}) must be >= base ({self.base_blocks})"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter fraction must be in [0, 1), got {self.jitter}")

    def blocks(self, attempt: int) -> int:
        """Blocks to wait before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt}")
        raw = self.base_blocks * self.factor**attempt
        if self.max_blocks is not None:
            raw = min(raw, float(self.max_blocks))
        if self.jitter > 0.0 and raw > 0.0:
            draw = float(np.random.default_rng([self.seed, attempt]).random())
            raw *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return max(0, int(round(raw)))


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """Configuration of the recovery ladder.

    The retry rung waits ``retry_backoff_blocks * retry_backoff_factor**k``
    discarded blocks before probe ``k``, capped at
    ``retry_backoff_max_blocks`` and jittered deterministically by
    ``retry_jitter`` (seeded with ``retry_jitter_seed``).  The defaults
    (factor 1, no jitter) reproduce the historical fixed-wait behaviour
    block for block, so existing EXT10 / verify claims are unchanged.
    """

    startup_blocks: int = 2
    max_retries: int = 2
    retry_backoff_blocks: int = 1
    retry_backoff_factor: float = 1.0
    retry_backoff_max_blocks: Optional[int] = None
    retry_jitter: float = 0.0
    retry_jitter_seed: int = 0
    allow_restart: bool = True
    backup_specs: Tuple = ()
    allow_degraded: bool = True

    def __post_init__(self) -> None:
        if self.startup_blocks < 1:
            raise ValueError(f"need at least one startup block, got {self.startup_blocks}")
        if self.max_retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.max_retries}")
        self.backoff()  # validates the backoff fields

    def backoff(self) -> BackoffSchedule:
        """The retry rung's wait schedule (see :class:`BackoffSchedule`)."""
        return BackoffSchedule(
            base_blocks=self.retry_backoff_blocks,
            factor=self.retry_backoff_factor,
            max_blocks=self.retry_backoff_max_blocks,
            jitter=self.retry_jitter,
            seed=self.retry_jitter_seed,
        )


class RingChannel:
    """One ring-backed bit source, resolvable under a fault effect.

    Wraps the fast :class:`PhaseWalkTrng` model of a ring spec resolved
    on a board; the reference period is provisioned once, at the
    *nominal* operating point (a deployed design cannot re-provision
    when the environment drifts — that asymmetry is the whole point).
    """

    def __init__(self, spec, board: Board, q_target: float = 0.2) -> None:
        self._spec = spec
        self._board = board
        self._q_target = float(q_target)
        ring = spec.build(board)
        self._supply_weight = ring.mean_supply_weight
        self._reference_period_ps = reference_period_for_q(
            ring.predicted_period_ps(), ring.predicted_period_jitter_ps(), q_target
        )
        self._nominal_model = PhaseWalkTrng.from_ring(ring, self._reference_period_ps)
        self._model_cache: Dict[Tuple[float, float], Optional[PhaseWalkTrng]] = {}
        self._held_bit = 0

    @property
    def name(self) -> str:
        return getattr(self._spec, "label", repr(self._spec))

    @property
    def spec(self):
        return self._spec

    @property
    def reference_period_ps(self) -> float:
        return self._reference_period_ps

    @property
    def supply_weight(self) -> float:
        return self._supply_weight

    def restart(self) -> None:
        """Power-cycle the source: the output latch clears, the power-up
        phase is re-randomized on the next block (the model draws it
        fresh), but the environment is untouched — a restart cannot
        outrun a persistent fault."""
        self._held_bit = 0

    # ------------------------------------------------------------------
    # fault translation
    # ------------------------------------------------------------------
    def resolve(self, effect: FaultEffect) -> Tuple[str, Optional[PhaseWalkTrng]]:
        """Translate an environmental effect into (status, model).

        A ``None`` model means the source produces no entropy in this
        condition; the status string names the physical reason.
        """
        if effect.oscillation_dead:
            return "oscillation_dead", None
        if effect.injection_strength * self._supply_weight >= LOCK_THRESHOLD:
            return "injection_locked", None
        supply = self._board.supply
        voltage = effect.supply_v if effect.supply_v is not None else supply.voltage_v
        temperature = (
            effect.temperature_c
            if effect.temperature_c is not None
            else supply.temperature_c
        )
        if temperature >= THERMAL_UPSET_C:
            return "thermal_upset", None
        if voltage == supply.voltage_v and temperature == supply.temperature_c:
            return "ok", self._nominal_model
        key = (round(voltage, 4), round(temperature, 2))
        if key not in self._model_cache:
            try:
                ring = self._spec.build(
                    self._board.with_supply(
                        SupplySpec(voltage_v=key[0], temperature_c=key[1])
                    )
                )
                self._model_cache[key] = PhaseWalkTrng.from_ring(
                    ring, self._reference_period_ps
                )
            except ValueError:
                # The operating point left the delay model's validity
                # range: the ring cannot sustain oscillation there.
                self._model_cache[key] = None
        model = self._model_cache[key]
        if model is None:
            return "operating_point_collapse", None
        return "ok", model

    def sample_block(
        self,
        bit_count: int,
        rng: np.random.Generator,
        effect: FaultEffect = NOMINAL_EFFECT,
        apply_upsets: bool = True,
    ) -> Tuple[np.ndarray, str]:
        """Sample one block of raw bits under the given effect."""
        status, model = self.resolve(effect)
        if model is None:
            # A dead or locked ring leaves the sampler reading a frozen
            # level: the last captured value, held.
            return np.full(bit_count, self._held_bit, dtype=int), status
        bits = model.generate(bit_count, seed=rng, modulation=effect.modulation)
        if apply_upsets and effect.upset_fraction > 0.0:
            upset = rng.random(bit_count) < effect.upset_fraction
            bits[upset] = effect.upset_value
        self._held_bit = int(bits[-1])
        return bits, status


@dataclasses.dataclass
class SupervisedRunResult:
    """Outcome of one supervised generation run."""

    bits: np.ndarray
    events: EventLog
    blocks: List[BlockRecord]
    final_state: TrngState
    total_sampled: int

    @property
    def bit_count(self) -> int:
        return int(self.bits.size)

    @property
    def first_alarm_position(self) -> Optional[int]:
        first = self.events.first_of_kind("alarm")
        return first.bit_position if first is not None else None

    def emitted_bits_after(self, bit_position: int) -> np.ndarray:
        """Emitted bits sampled at or after ``bit_position`` (stream index)."""
        offset = 0
        collected: List[np.ndarray] = []
        for record in self.blocks:
            if not record.emitted:
                continue
            if record.position >= bit_position:
                collected.append(self.bits[offset : offset + record.size])
            offset += record.size
        if not collected:
            return np.zeros(0, dtype=int)
        return np.concatenate(collected)

    @property
    def emitted_after_first_alarm(self) -> int:
        """Bits emitted at or after the first alarm — zero for a clean
        total-failure stop."""
        first = self.first_alarm_position
        if first is None:
            return 0
        return int(self.emitted_bits_after(first).size)


class SupervisedTrng:
    """An elementary TRNG under continuous health supervision.

    Parameters
    ----------
    primary:
        A ring spec (anything with ``build(board)`` and ``label``, i.e.
        :class:`repro.core.campaign.RingSpec`) or a prebuilt
        :class:`RingChannel`.
    board:
        The board everything runs on; defaults to a nominal board.
    policy:
        The recovery ladder configuration, including backup specs.
    block_bits:
        Supervision granularity: bits sampled, health-checked and then
        emitted or discarded as one unit.
    claimed_min_entropy / window:
        Health-monitor configuration (see :class:`HealthMonitor`).
    q_target:
        Quality-factor target used to provision each channel's
        reference clock at the nominal operating point.
    """

    def __init__(
        self,
        primary,
        board: Optional[Board] = None,
        policy: RecoveryPolicy = RecoveryPolicy(),
        block_bits: int = 512,
        claimed_min_entropy: float = 0.9,
        window: int = 512,
        q_target: float = 0.2,
    ) -> None:
        if block_bits < 16:
            raise ValueError(f"block size must be at least 16 bits, got {block_bits}")
        self._board = board if board is not None else Board()
        if isinstance(primary, RingChannel):
            self._primary = primary
        else:
            self._primary = RingChannel(primary, self._board, q_target=q_target)
        self._policy = policy
        self._block_bits = int(block_bits)
        self._claimed_min_entropy = float(claimed_min_entropy)
        self._window = int(window)
        self._q_target = float(q_target)
        self._backup_channels: Optional[List[RingChannel]] = None
        self.state = TrngState.STARTUP
        #: Optional per-block hook (:data:`BlockObserver`): called for
        #: every sampled block with a :class:`BlockObservation`.  Used
        #: by ``repro.obs`` to run drift charts alongside a supervised
        #: run; ``None`` costs a single attribute check per block.
        self.block_observer: Optional[BlockObserver] = None

    @property
    def primary(self) -> RingChannel:
        return self._primary

    @property
    def policy(self) -> RecoveryPolicy:
        return self._policy

    @property
    def block_bits(self) -> int:
        return self._block_bits

    def reset(self) -> None:
        """Service the generator: clear the failure latch, restart rings."""
        self.state = TrngState.STARTUP
        self._primary.restart()
        if self._backup_channels:
            for channel in self._backup_channels:
                channel.restart()

    def _backups(self) -> List[RingChannel]:
        if self._backup_channels is None:
            self._backup_channels = [
                RingChannel(spec, self._board, q_target=self._q_target)
                for spec in self._policy.backup_specs
            ]
        return self._backup_channels

    def _fresh_monitor(self) -> HealthMonitor:
        return HealthMonitor(
            claimed_min_entropy=self._claimed_min_entropy, window=self._window
        )

    # ------------------------------------------------------------------
    # supervised generation
    # ------------------------------------------------------------------
    def run(
        self,
        bit_budget: int,
        scenario: Optional[FaultScenario] = None,
        seed: SeedLike = None,
    ) -> SupervisedRunResult:
        """Generate up to ``bit_budget`` supervised bits.

        The run stops early only on total failure.  Raises
        :class:`TotalFailureError` if the generator is already failed —
        call :meth:`reset` to service it first.
        """
        if bit_budget < 1:
            raise ValueError(f"bit budget must be positive, got {bit_budget}")
        if self.state is TrngState.TOTAL_FAILURE:
            raise TotalFailureError(
                "generator is in TOTAL_FAILURE; call reset() to service it"
            )
        with span(
            "supervised_run", primary=self._primary.name, bit_budget=bit_budget
        ) as tele:
            run = _SupervisedRun(self, scenario, make_rng(seed))
            result = run.execute(bit_budget)
            self.state = result.final_state
            tele.set("final_state", result.final_state.value)
            tele.set("emitted_bits", result.bit_count)
            tele.set("events", len(result.events))
            return result


class _SupervisedRun:
    """Mutable state of one :meth:`SupervisedTrng.run` invocation."""

    def __init__(
        self,
        owner: SupervisedTrng,
        scenario: Optional[FaultScenario],
        rng: np.random.Generator,
    ) -> None:
        self._owner = owner
        self._scenario = scenario
        self._rng = rng
        self._active: List[RingChannel] = [owner.primary]
        self._monitor = owner._fresh_monitor()
        self._events = EventLog()
        self._blocks: List[BlockRecord] = []
        self._emitted: List[np.ndarray] = []
        self._position = 0
        self._time_s = 0.0
        self._state = TrngState.STARTUP

    # -- plumbing ------------------------------------------------------
    def _effect(self) -> FaultEffect:
        if self._scenario is None:
            return NOMINAL_EFFECT
        return self._scenario.effect_at(self._time_s)

    def _log(self, kind: str, state_to: TrngState, detail: str = "") -> None:
        event = SupervisorEvent(
            kind=kind,
            time_s=self._time_s,
            bit_position=self._position,
            state_from=self._state.value,
            state_to=state_to.value,
            detail=detail,
        )
        self._events.append(event)
        self._state = state_to
        # Bridge into the telemetry layer: the structured log stays the
        # assertable source of truth, but the same transition lands on
        # the trace timeline (under the supervised_run span) and in the
        # per-kind counters.
        emit_event(f"supervisor.{kind}", **event.to_dict())
        registry = default_registry()
        registry.counter("repro.trng.supervisor.events").inc()
        registry.counter(f"repro.trng.supervisor.{kind}").inc()

    def _sample(
        self, channels: Sequence[RingChannel]
    ) -> Tuple[np.ndarray, str, int, float]:
        """Sample one block from ``channels`` (XOR when several).

        Returns (bits, status, start position, start time); advances the
        stream clock by the slowest participating reference period.
        """
        effect = self._effect()
        block_bits = self._owner.block_bits
        position, time_s = self._position, self._time_s
        combined: Optional[np.ndarray] = None
        statuses: List[str] = []
        for index, channel in enumerate(channels):
            apply_upsets = (not effect.upset_local) or channel is self._owner.primary
            bits, status = channel.sample_block(
                block_bits, self._rng, effect, apply_upsets=apply_upsets
            )
            statuses.append(status)
            combined = bits if combined is None else (combined ^ bits)
        status = next((s for s in statuses if s != "ok"), "ok")
        slowest_ps = max(channel.reference_period_ps for channel in channels)
        self._position += block_bits
        self._time_s += block_bits * slowest_ps * 1.0e-12
        return combined, status, position, time_s

    def _record(
        self,
        bits: np.ndarray,
        status: str,
        position: int,
        time_s: float,
        alarm_count: int,
        emitted: bool,
        channel_name: str,
    ) -> None:
        self._blocks.append(
            BlockRecord(
                index=len(self._blocks),
                position=position,
                size=int(bits.size),
                time_s=time_s,
                state=self._state.value,
                channel=channel_name,
                status=status,
                alarm_count=alarm_count,
                emitted=emitted,
                ones=int(np.sum(bits)),
            )
        )
        observer = self._owner.block_observer
        if observer is not None:
            observer(
                BlockObservation(
                    bits=bits,
                    time_s=time_s,
                    position=position,
                    channel=channel_name,
                    status=status,
                    alarm_count=alarm_count,
                    emitted=emitted,
                )
            )

    def _active_name(self) -> str:
        if len(self._active) == 1:
            return self._active[0].name
        return "xor(" + "+".join(channel.name for channel in self._active) + ")"

    def _steady_state(self) -> TrngState:
        """The state a successful recovery returns to: ONLINE on a
        single source, DEGRADED while the XOR set is active."""
        return TrngState.ONLINE if len(self._active) == 1 else TrngState.DEGRADED

    # -- health-checked probes -----------------------------------------
    def _probe(self, channels: Sequence[RingChannel], blocks: int = 1):
        """Sample ``blocks`` blocks and health-check them in isolation.

        Returns (healthy, concatenated bits, status, first position).
        Probe bits are never emitted by the caller unless healthy.
        """
        monitor = self._owner._fresh_monitor()
        collected: List[np.ndarray] = []
        first_position = self._position
        worst_status = "ok"
        for _ in range(blocks):
            bits, status, position, time_s = self._sample(channels)
            alarms = monitor.ingest(bits)
            if status != "ok":
                worst_status = status
            self._record(
                bits, status, position, time_s, len(alarms), False, self._active_name()
            )
            collected.append(bits)
        return monitor.healthy, np.concatenate(collected), worst_status, first_position

    # -- recovery ladder ------------------------------------------------
    def _recover(self) -> bool:
        """Walk the recovery ladder; True when generation may continue."""
        policy = self._owner._policy
        backoff = policy.backoff()
        # 1. bounded retry with backoff: discard, then probe.
        for attempt in range(policy.max_retries):
            for _ in range(backoff.blocks(attempt)):
                bits, status, position, time_s = self._sample(self._active)
                self._record(
                    bits, status, position, time_s, 0, False, self._active_name()
                )
            healthy, probe_bits, status, _ = self._probe(self._active)
            if healthy:
                self._log("recovered", self._steady_state(), detail="mechanism=retry")
                self._monitor = self._owner._fresh_monitor()
                return True
            self._log(
                "retry_failed",
                TrngState.ALARMED,
                detail=f"attempt={attempt + 1} status={status}",
            )
        # 2. ring restart.
        if policy.allow_restart:
            for channel in self._active:
                channel.restart()
            self._log("ring_restart", TrngState.ALARMED, detail=self._active_name())
            healthy, probe_bits, status, _ = self._probe(self._active)
            if healthy:
                self._log("recovered", self._steady_state(), detail="mechanism=restart")
                self._monitor = self._owner._fresh_monitor()
                return True
            self._log("restart_failed", TrngState.ALARMED, detail=f"status={status}")
        # 3. failover to a backup spec.
        for backup in self._owner._backups():
            if backup is self._active[0]:
                continue
            healthy, probe_bits, status, _ = self._probe(
                [backup], blocks=policy.startup_blocks
            )
            if healthy:
                self._active = [backup]
                self._log("failover", TrngState.ONLINE, detail=f"to={backup.name}")
                self._monitor = self._owner._fresh_monitor()
                return True
            self._log(
                "failover_failed",
                TrngState.ALARMED,
                detail=f"to={backup.name} status={status}",
            )
        # 4. XOR-degraded mode over every surviving ring.
        if policy.allow_degraded:
            survivors = []
            effect = self._effect()
            for channel in [self._owner.primary] + self._owner._backups():
                status, model = channel.resolve(effect)
                if model is not None:
                    survivors.append(channel)
            if len(survivors) >= 2:
                previous_active = self._active
                self._active = survivors
                healthy, probe_bits, status, _ = self._probe(survivors)
                if healthy:
                    self._log(
                        "degraded_mode",
                        TrngState.DEGRADED,
                        detail=self._active_name(),
                    )
                    self._monitor = self._owner._fresh_monitor()
                    return True
                self._active = previous_active
                self._log("degraded_failed", TrngState.ALARMED, detail=f"status={status}")
        # 5. hard stop.
        self._log("total_failure", TrngState.TOTAL_FAILURE, detail="recovery exhausted")
        return False

    # -- main loop -----------------------------------------------------
    def execute(self, bit_budget: int) -> SupervisedRunResult:
        policy = self._owner._policy
        self._log("startup", TrngState.STARTUP, detail=self._active_name())
        healthy, _, status, _ = self._probe(self._active, blocks=policy.startup_blocks)
        if healthy:
            self._log("online", TrngState.ONLINE, detail=self._active_name())
        else:
            self._log("alarm", TrngState.ALARMED, detail=f"startup status={status}")
            if not self._recover():
                return self._result()

        emitted_count = 0
        while emitted_count < bit_budget:
            bits, status, position, time_s = self._sample(self._active)
            alarms = self._monitor.ingest(bits)
            if alarms:
                self._record(
                    bits, status, position, time_s, len(alarms), False,
                    self._active_name(),
                )
                tests = ",".join(sorted({alarm.test_name for alarm in alarms}))
                self._log(
                    "alarm",
                    TrngState.ALARMED,
                    detail=f"tests={tests} count={len(alarms)} status={status}",
                )
                if not self._recover():
                    break
                continue
            emitted_state = self._state
            self._record(
                bits, status, position, time_s, 0, True, self._active_name()
            )
            self._emitted.append(bits)
            emitted_count += int(bits.size)
            del emitted_state
        return self._result()

    def _result(self) -> SupervisedRunResult:
        bits = (
            np.concatenate(self._emitted) if self._emitted else np.zeros(0, dtype=int)
        )
        return SupervisedRunResult(
            bits=bits,
            events=self._events,
            blocks=self._blocks,
            final_state=self._state,
            total_sampled=self._position,
        )

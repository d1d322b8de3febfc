"""The inverter ring oscillator (paper Section II-A, Fig. 1).

Structure: stage 0 is an inverter, stages 1..L-1 are delay elements, all
closed into a ring.  A single event travels around; each stage propagates
the rising and the falling edge in two successive half-periods, so one
period is **two laps**: ``T = 2 * sum(D_i)``.

Jitter behaviour (Section IV): each of the ``2L`` crossings of a period
adds an independent Gaussian sample, so period jitter accumulates as
``sqrt(2L) * sigma_g`` (Eq. 4); a global deterministic modulation adds up
linearly over the same ``2L`` crossings, making the IRO the fragile one
of the pair.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.batch import IROBatchSpec
from repro.simulation.engine import SimulationLimits, Simulator
from repro.simulation.events import Transition
from repro.simulation.noise import (
    ConstantModulation,
    DeterministicModulation,
    SeedLike,
    make_rng,
)
from repro.simulation.waveform import EdgeTrace
from repro.telemetry import default_registry


class InverterRingOscillator(RingOscillator):
    """A resolved IRO: per-stage delays and jitter magnitudes are known.

    Parameters
    ----------
    stage_delays_ps:
        Static propagation delay of each stage (LUT + outgoing hop).
    jitter_sigmas_ps:
        Gaussian jitter magnitude of each stage crossing; a scalar is
        broadcast to all stages.
    name:
        Report label, e.g. ``"IRO 5C"``.
    """

    family = "iro"

    def __init__(
        self,
        stage_delays_ps: Sequence[float],
        jitter_sigmas_ps=2.0,
        supply_weights=1.0,
        name: str = "IRO",
    ) -> None:
        super().__init__(name)
        delays = np.asarray(stage_delays_ps, dtype=float)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("stage delays must be a non-empty 1-D sequence")
        if np.any(delays <= 0.0):
            raise ValueError("all stage delays must be positive")
        sigmas = np.broadcast_to(np.asarray(jitter_sigmas_ps, dtype=float), delays.shape).copy()
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        weights = np.broadcast_to(np.asarray(supply_weights, dtype=float), delays.shape).copy()
        if np.any(weights < 0.0):
            raise ValueError("supply weights must be non-negative")
        self._delays = delays
        self._sigmas = sigmas
        self._supply_weights = weights

    # ------------------------------------------------------------------
    # construction on a board
    # ------------------------------------------------------------------
    @classmethod
    def on_board(cls, board, stage_count: int, first_lut: int = 0) -> "InverterRingOscillator":
        """Place and resolve an ``stage_count``-stage IRO on a board."""
        from repro.fpga.placement import place_ring

        placement = place_ring(
            stage_count,
            lab_capacity=board.calibration.constants.lab_capacity,
            first_lut=first_lut,
        )
        timings = board.resolve(placement, with_charlie=False)
        return cls(
            stage_delays_ps=[timing.static_delay_ps for timing in timings],
            jitter_sigmas_ps=[timing.jitter_sigma_ps for timing in timings],
            supply_weights=[timing.supply_weight for timing in timings],
            name=f"IRO {stage_count}C",
        )

    # ------------------------------------------------------------------
    # structure and analytical layer
    # ------------------------------------------------------------------
    @property
    def stage_count(self) -> int:
        return int(self._delays.size)

    @property
    def stage_delays_ps(self) -> np.ndarray:
        return self._delays.copy()

    @property
    def jitter_sigmas_ps(self) -> np.ndarray:
        return self._sigmas.copy()

    @property
    def supply_weights(self) -> np.ndarray:
        """Per-stage relative response to supply delay modulation."""
        return self._supply_weights.copy()

    @property
    def mean_supply_weight(self) -> float:
        """Delay-weighted mean supply response of the whole ring."""
        return float(np.sum(self._supply_weights * self._delays) / np.sum(self._delays))

    def predicted_period_ps(self) -> float:
        """``T = 2 * sum(D_i)`` — one event, two laps."""
        return float(2.0 * np.sum(self._delays))

    def predicted_period_jitter_ps(self) -> float:
        """Eq. 4 generalized to per-stage sigmas: ``sqrt(2 sum sigma_i^2)``."""
        return float(np.sqrt(2.0 * np.sum(self._sigmas**2)))

    # ------------------------------------------------------------------
    # fast statistical layer
    # ------------------------------------------------------------------
    def sample_periods(
        self,
        count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
    ) -> np.ndarray:
        """Draw consecutive periods: ``T_j = T(t_j) + N(0, 2 sum sigma_i^2)``.

        The deterministic modulation is evaluated once per period at the
        period start (one period is short against any modulation the
        paper considers) and scales the whole nominal period — the linear
        accumulation of Section IV-B.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        rng = make_rng(seed)
        nominal = self.predicted_period_ps()
        weight = self.mean_supply_weight
        noise = rng.normal(0.0, self.predicted_period_jitter_ps(), size=count)
        if modulation is None or isinstance(modulation, ConstantModulation):
            factor = 0.0 if modulation is None else modulation.factor(0.0)
            return nominal * (1.0 + weight * factor) + noise
        start_times = nominal * np.arange(count)
        factors = modulation.factor_array(start_times)
        return nominal * (1.0 + weight * factors) + noise

    # ------------------------------------------------------------------
    # simulation layer
    # ------------------------------------------------------------------
    # Named here as well, so a per-class wrapper of
    # ``InverterRingOscillator.simulate`` (the benchmark's layer tracer)
    # finds it in the class namespace.
    simulate = RingOscillator.simulate

    def _batch_spec(self, edge_count: int, seed: SeedLike, output_stage: int) -> IROBatchSpec:
        return IROBatchSpec.from_ring(self, edge_count=edge_count, seed=seed)

    def _event_trace(
        self,
        edge_count: int,
        seed: SeedLike,
        modulation: Optional[DeterministicModulation],
        output_stage: int,
    ) -> Tuple[EdgeTrace, int]:
        process = _IROProcess(self, modulation, make_rng(seed))
        simulator = Simulator()
        output_node = self.stage_count - 1
        simulator.observe(output_node)
        simulator.run(process, SimulationLimits(max_observed_edges=edge_count))
        events = simulator.events_processed
        registry = default_registry()
        registry.counter("repro.rings.iro.simulations").inc()
        registry.counter("repro.rings.iro.events").inc(events)
        return EdgeTrace.from_edges(simulator.edges_for(output_node)), events


class _IROProcess:
    """Engine process: one event hops from stage to stage, inverting at 0."""

    def __init__(
        self,
        ring: InverterRingOscillator,
        modulation: Optional[DeterministicModulation],
        rng: np.random.Generator,
    ) -> None:
        self._delays: List[float] = [float(d) for d in ring.stage_delays_ps]
        self._sigmas: List[float] = [float(s) for s in ring.jitter_sigmas_ps]
        self._weights: List[float] = [float(w) for w in ring.supply_weights]
        self._stage_count = ring.stage_count
        self._modulation = modulation
        self._rng = rng

    def start(self, simulator: Simulator) -> None:
        # Kick the ring: stage 0's output rises at its own delay, as if
        # the event had just left the last stage at t = 0.
        self._schedule_hop(simulator, from_time_ps=0.0, to_stage=0, value=1)

    def handle(self, simulator: Simulator, transition: Transition) -> None:
        next_stage = (transition.node + 1) % self._stage_count
        value = transition.value
        if next_stage == 0:
            value = 1 - value  # the single inverting stage
        self._schedule_hop(simulator, transition.time_ps, next_stage, value)

    def _schedule_hop(self, simulator: Simulator, from_time_ps: float, to_stage: int, value: int) -> None:
        delay = self._delays[to_stage]
        if self._modulation is not None:
            delay *= 1.0 + self._weights[to_stage] * self._modulation.factor(from_time_ps)
        sigma = self._sigmas[to_stage]
        if sigma > 0.0:
            delay += self._rng.normal(0.0, sigma)
        if delay <= 0.0:
            delay = 1e-6  # causality guard; unreachable for realistic sigmas
        simulator.schedule(from_time_ps + delay, to_stage, value)

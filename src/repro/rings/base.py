"""Common abstractions shared by the IRO and STR models.

A ring oscillator in this library is always *resolved*: it owns the
per-stage timing produced by a board (or handed in directly by a test)
and can therefore answer timing questions without further context.  Every
ring offers the same three evaluation layers, from cheapest to most
faithful:

1. ``predicted_period_ps()`` — closed-form prediction from the analytical
   model (no randomness);
2. ``sample_periods(...)`` — vectorized draws from the analytical jitter
   model (Eqs. 4/5), for statistics-hungry consumers such as the TRNG
   layer;
3. ``simulate(...)`` — exact simulation of the ring's timing model, the
   ground truth the analytical layers are validated against.  It runs on
   the vectorized batch kernel (:mod:`repro.simulation.batch`) by
   default, under every modulation; ``backend="event"`` selects the
   per-event engine, which is the oracle the kernel is tested against.

:func:`simulate_many` runs a whole sweep of rings the way ``simulate``
runs one, with one kernel call per ring family.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulation.batch import simulate_iro_batch, simulate_str_batch
from repro.simulation.noise import DeterministicModulation, SeedLike
from repro.simulation.waveform import EdgeTrace
from repro.telemetry import span
from repro.units import period_ps_to_mhz


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of a ring simulation (either backend).

    ``trace`` has the warm-up prefix already removed; ``warmup_trace``
    retains it for transient studies (mode-locking experiments look at
    the warm-up, jitter experiments discard it).
    """

    trace: EdgeTrace
    warmup_trace: EdgeTrace
    events_processed: int

    @property
    def period_count(self) -> int:
        return max(0, (len(self.trace) - 1) // 2)


def _check_run(period_count: int, warmup_periods: int) -> None:
    if period_count < 1:
        raise ValueError(f"period_count must be positive, got {period_count}")
    if warmup_periods < 0:
        raise ValueError(f"warmup_periods must be non-negative, got {warmup_periods}")


def _check_backend(backend: str) -> None:
    if backend not in ("event", "batch"):
        raise ValueError(f"backend must be 'event' or 'batch', got {backend!r}")


def _edge_count(period_count: int, warmup_periods: int) -> int:
    # +1 edge so the last period is complete; x2 edges per period.
    return 2 * (period_count + warmup_periods) + 1


def _result(full_trace: EdgeTrace, events: int, warmup_periods: int) -> SimulationResult:
    return SimulationResult(
        trace=full_trace.skip_edges(2 * warmup_periods),
        warmup_trace=full_trace,
        events_processed=events,
    )


class RingOscillator(abc.ABC):
    """Base class for resolved ring oscillators."""

    #: Ring family, ``"iro"`` or ``"str"``: selects the batch kernel.
    family: str

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def stage_count(self) -> int:
        """Number of ring stages ``L``."""

    # ------------------------------------------------------------------
    # analytical layer
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def predicted_period_ps(self) -> float:
        """Nominal oscillation period from the analytical model."""

    def predicted_frequency_mhz(self) -> float:
        """Nominal oscillation frequency from the analytical model."""
        return period_ps_to_mhz(self.predicted_period_ps())

    @abc.abstractmethod
    def predicted_period_jitter_ps(self) -> float:
        """Period jitter predicted by the paper's model (Eq. 4 or 5)."""

    @property
    @abc.abstractmethod
    def mean_supply_weight(self) -> float:
        """Relative response of the ring period to supply delay modulation."""

    # ------------------------------------------------------------------
    # fast statistical layer
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample_periods(
        self,
        count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
    ) -> np.ndarray:
        """Draw ``count`` consecutive periods from the analytical model."""

    # ------------------------------------------------------------------
    # simulation layer
    # ------------------------------------------------------------------
    def simulate(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
        backend: str = "batch",
    ) -> SimulationResult:
        """Run the simulation for ``period_count`` periods.

        ``backend="batch"`` (default) is :func:`simulate_many` of this
        one ring: the vectorized kernel in :mod:`repro.simulation.batch`,
        which accepts every modulation; ``backend="event"`` is the
        per-event reference engine, the oracle.  The ``simulate`` span
        is tagged with the backend that ran.  An IRO is observed at its
        last stage; an STR at stage 0 (``SelfTimedRing.simulate`` picks
        another).
        """
        return self._simulate(period_count, seed, modulation, warmup_periods, 0, backend)

    @abc.abstractmethod
    def _batch_spec(self, edge_count: int, seed: SeedLike, output_stage: int):
        """The kernel spec of a run recording ``edge_count`` output edges."""

    @abc.abstractmethod
    def _event_trace(
        self,
        edge_count: int,
        seed: SeedLike,
        modulation: Optional[DeterministicModulation],
        output_stage: int,
    ) -> Tuple[EdgeTrace, int]:
        """``(output trace, events)`` of an event-engine run of ``edge_count`` edges."""

    def _simulate(
        self,
        period_count: int,
        seed: SeedLike,
        modulation: Optional[DeterministicModulation],
        warmup_periods: int,
        output_stage: int,
        backend: str,
    ) -> SimulationResult:
        """:meth:`simulate` observed at ``output_stage`` (ignored by an IRO)."""
        _check_backend(backend)
        if backend == "batch":
            return simulate_many(
                [self],
                period_count,
                [seed],
                warmup_periods,
                modulation,
                output_stage=output_stage,
            )[0]
        _check_run(period_count, warmup_periods)
        needed_edges = _edge_count(period_count, warmup_periods)
        with span("simulate", ring=self.name, periods=period_count, backend="event") as tele:
            full_trace, events = self._event_trace(needed_edges, seed, modulation, output_stage)
            tele.set("events", events)
        return _result(full_trace, events, warmup_periods)

    # ------------------------------------------------------------------
    # convenience measurements
    # ------------------------------------------------------------------
    def measure_frequency_mhz(
        self,
        period_count: int = 128,
        seed: SeedLike = 0,
        modulation: Optional[DeterministicModulation] = None,
    ) -> float:
        """Mean frequency over a simulated run."""
        result = self.simulate(period_count, seed=seed, modulation=modulation)
        return result.trace.mean_frequency_mhz()

    def measure_period_jitter_ps(
        self,
        period_count: int = 1024,
        seed: SeedLike = 0,
        modulation: Optional[DeterministicModulation] = None,
    ) -> float:
        """Period jitter (std of the period population) over a run."""
        result = self.simulate(period_count, seed=seed, modulation=modulation)
        return result.trace.period_jitter_ps()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, stages={self.stage_count})"


def simulate_many(
    rings: Sequence[RingOscillator],
    period_counts: Union[int, Sequence[int]],
    seeds: Sequence[SeedLike],
    warmup_periods: int = 16,
    modulation: Optional[DeterministicModulation] = None,
    *,
    output_stage: int = 0,
) -> List[SimulationResult]:
    """Simulate a sweep of rings with one batch-kernel call per family.

    ``results[i]`` equals ``rings[i].simulate(period_counts[i],
    seed=seeds[i], modulation=modulation, warmup_periods=warmup_periods)``
    bit for bit: a kernel result depends only on its own ring and seed,
    never on the rest of the batch.  ``period_counts`` may be one count
    for every ring.  ``output_stage`` is the observed stage of each STR;
    an IRO is always observed at its last stage.  Every ``modulation``
    runs on the kernels; the runs of each family share one ``simulate``
    span tagged ``backend="batch"``.
    """
    rings = list(rings)
    seeds = list(seeds)
    if isinstance(period_counts, (int, np.integer)):
        counts = [int(period_counts)] * len(rings)
    else:
        counts = [int(count) for count in period_counts]
    if not (len(counts) == len(seeds) == len(rings)):
        raise ValueError(
            f"need one period count and one seed per ring: {len(rings)} rings, "
            f"{len(counts)} period counts, {len(seeds)} seeds"
        )
    for count in counts:
        _check_run(count, warmup_periods)

    results: List[Optional[SimulationResult]] = [None] * len(rings)
    # The kernels are looked up per call, never stored, so a wrapper
    # installed on the module names (the benchmark's layer tracer) sees them.
    for family, kernel in (("iro", simulate_iro_batch), ("str", simulate_str_batch)):
        rows = [row for row, ring in enumerate(rings) if ring.family == family]
        if not rows:
            continue
        # A ring's per-stage arrays are gathered once, however many rows
        # (restarts, seeds) run it.
        first_specs: Dict[int, Any] = {}
        specs = []
        for row in rows:
            edge_count = _edge_count(counts[row], warmup_periods)
            first = first_specs.get(id(rings[row]))
            if first is None:
                spec = first_specs[id(rings[row])] = rings[row]._batch_spec(
                    edge_count, seeds[row], output_stage
                )
            else:
                spec = dataclasses.replace(first, edge_count=edge_count, seed=seeds[row])
            specs.append(spec)
        names = ", ".join(dict.fromkeys(rings[row].name for row in rows))
        periods = sum(counts[row] for row in rows)
        with span(
            "simulate", ring=names, rings=len(rows), periods=periods, backend="batch"
        ) as tele:
            batch = kernel(specs, modulation=modulation)
            tele.set("events", batch.events_processed)
        for row, trace, events in zip(rows, batch.traces, batch.ring_events):
            results[row] = _result(trace, events, warmup_periods)
    return results

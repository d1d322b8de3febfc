"""Experiment drivers: the measurement campaigns of Section V.

Three campaigns, each mirroring one subsection of the paper's evaluation:

* :func:`sweep_voltage` — frequency vs core supply (Fig. 8, Table I);
* :func:`measure_family_dispersion` — the same bitstream on every board
  of a bank (Table II);
* :func:`measure_period_jitter` — period jitter through the full
  measurement chain (Figs. 9, 11, 12), with the divider method of
  Fig. 10 as the default instrument.

Each driver accepts a *ring builder* — a callable resolving a ring on a
given board — so the same campaign code runs for IROs, STRs, or anything
else implementing :class:`~repro.rings.base.RingOscillator`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.fpga.board import Board, BoardBank
from repro.fpga.voltage import NOMINAL_CORE_VOLTAGE, SupplySpec
from repro.measurement.counters import RippleDivider
from repro.measurement.jitter import (
    DividerJitterReading,
    measure_period_jitter_direct,
    measure_period_jitter_divider,
)
from repro.parallel.seeds import spawn_seeds
from repro.rings.base import RingOscillator
from repro.simulation.noise import SeedLike
from repro.stats.descriptive import (
    linearity_r_squared,
    normalized_excursion,
    normalized_frequencies,
    relative_standard_deviation,
)
from repro.telemetry import get_logger, span

_log = get_logger("repro.core.characterization")

#: Resolves a ring oscillator on a board.
RingBuilder = Callable[[Board], RingOscillator]


# ----------------------------------------------------------------------
# voltage sweeps (Fig. 8 / Table I)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class VoltageSweepResult:
    """Frequency response of one ring to a core-voltage sweep."""

    ring_name: str
    voltages_v: np.ndarray
    frequencies_mhz: np.ndarray
    nominal_voltage_v: float

    @property
    def nominal_frequency_mhz(self) -> float:
        """Frequency at (the closest sampled point to) the nominal voltage."""
        index = int(np.argmin(np.abs(self.voltages_v - self.nominal_voltage_v)))
        return float(self.frequencies_mhz[index])

    def normalized(self) -> np.ndarray:
        """``Fn`` series for the Fig. 8 plot."""
        return normalized_frequencies(self.frequencies_mhz, self.nominal_frequency_mhz)

    def excursion(self) -> float:
        """Table I metric over the sampled sweep ends."""
        return normalized_excursion(
            float(self.frequencies_mhz[np.argmin(self.voltages_v)]),
            float(self.frequencies_mhz[np.argmax(self.voltages_v)]),
            self.nominal_frequency_mhz,
        )

    def linearity(self) -> float:
        """R^2 of frequency vs voltage (the paper observes ~linear)."""
        return linearity_r_squared(self.voltages_v, self.frequencies_mhz)


def sweep_voltage(
    board: Board,
    ring_builder: RingBuilder,
    voltages_v: Sequence[float],
) -> VoltageSweepResult:
    """Sweep the core supply and record the ring frequency at each point.

    Frequencies are the analytical ones (exact, instant); a simulated
    reading of one point is ``ring.measure_frequency_mhz()`` on
    ``board.with_supply(...)``.
    """
    if len(voltages_v) < 2:
        raise ValueError("a sweep needs at least two voltage points")
    with span("sweep_voltage", points=len(voltages_v)):
        rings = [
            ring_builder(board.with_supply(SupplySpec(voltage_v=float(voltage))))
            for voltage in voltages_v
        ]
        return VoltageSweepResult(
            ring_name=rings[-1].name,
            voltages_v=np.asarray(voltages_v, dtype=float),
            frequencies_mhz=np.asarray(
                [ring.predicted_frequency_mhz() for ring in rings], dtype=float
            ),
            nominal_voltage_v=NOMINAL_CORE_VOLTAGE,
        )


# ----------------------------------------------------------------------
# extra-device dispersion (Table II)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FamilyDispersionResult:
    """Same-bitstream frequencies across a board bank."""

    ring_name: str
    board_names: Sequence[str]
    frequencies_mhz: np.ndarray

    @property
    def mean_frequency_mhz(self) -> float:
        return float(np.mean(self.frequencies_mhz))

    @property
    def sigma_rel(self) -> float:
        """Table II metric."""
        return relative_standard_deviation(self.frequencies_mhz)


def measure_family_dispersion(
    bank: BoardBank,
    ring_builder: RingBuilder,
) -> FamilyDispersionResult:
    """Send the same "bitstream" to every board and compare frequencies."""
    with span("family_dispersion", boards=len(bank)):
        rings = [ring_builder(board) for board in bank]
        return FamilyDispersionResult(
            ring_name=rings[-1].name,
            board_names=tuple(board.name for board in bank),
            frequencies_mhz=np.asarray(
                [ring.predicted_frequency_mhz() for ring in rings], dtype=float
            ),
        )


# ----------------------------------------------------------------------
# jitter campaigns (Figs. 9, 11, 12)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JitterMeasurementResult:
    """Period jitter of one ring through the chosen instrument chain."""

    ring_name: str
    stage_count: int
    sigma_period_ps: float
    mean_period_ps: float
    method: str
    divider_reading: Optional[DividerJitterReading] = None

    @property
    def frequency_mhz(self) -> float:
        return 1e6 / self.mean_period_ps


#: Warm-up discarded before every jitter measurement.  Process-varied
#: rings settle slowly (weak restoring slopes near the Charlie bottom);
#: a generous warm-up keeps the start-up transient out of the jitter
#: statistics.
JITTER_WARMUP_PERIODS = 64


def jitter_from_trace(
    ring: RingOscillator,
    trace,
    method: str,
    seed: SeedLike,
    divider: Optional[RippleDivider] = None,
) -> JitterMeasurementResult:
    """Apply the chosen jitter instrument to an already-simulated trace.

    The instruments only read ``trace`` (the ``direct`` and ``divider``
    methods draw their scope error from ``seed``), so several methods
    can be applied to one simulation — see the FIG10 experiment.
    """
    mean_period = trace.mean_period_ps()
    divider_reading = None
    if method == "population":
        sigma = trace.period_jitter_ps()
    elif method == "direct":
        sigma = measure_period_jitter_direct(trace, seed=seed).sigma_period_ps
    else:
        divider = divider if divider is not None else RippleDivider()
        divider_reading = measure_period_jitter_divider(trace, divider=divider, seed=seed)
        sigma = divider_reading.sigma_period_ps
    return JitterMeasurementResult(
        ring_name=ring.name,
        stage_count=ring.stage_count,
        sigma_period_ps=sigma,
        mean_period_ps=mean_period,
        method=method,
        divider_reading=divider_reading,
    )


def measure_period_jitter(
    ring: RingOscillator,
    method: str = "divider",
    period_count: int = 8192,
    seed: SeedLike = 0,
    divider: Optional[RippleDivider] = None,
    warmup_periods: int = JITTER_WARMUP_PERIODS,
    backend: str = "batch",
) -> JitterMeasurementResult:
    """Measure a ring's period jitter.

    Methods:

    * ``"population"`` — std of the simulated period population (no
      instrument error; ground truth);
    * ``"direct"`` — the naive scope reading (biased for ps jitter);
    * ``"divider"`` — the Fig. 10 on-chip divider method (the paper's).

    ``backend`` selects the simulation engine (see
    :meth:`~repro.rings.base.RingOscillator.simulate`): the batch kernel
    by default, ``"event"`` for the oracle.  The instrument chain on top
    of the trace is identical either way.
    """
    if method not in ("population", "direct", "divider"):
        raise ValueError(f"unknown method {method!r}")
    with span("measure_period_jitter", ring=ring.name, method=method):
        result = ring.simulate(
            period_count, seed=seed, warmup_periods=warmup_periods, backend=backend
        )
        return jitter_from_trace(ring, result.trace, method, seed, divider)


#: Replica fan-out of the batched STR jitter driver: one long run is
#: split into this many independently seeded shorter runs so the batch
#: kernel gets width to vectorize over.  Statistically equivalent for
#: the population method (independent periods either way); capped so
#: per-replica warm-up stays a minority of the simulated periods.
STR_BATCH_REPLICAS = 8


def _jitter_versus_length_batch(
    rings: Sequence[RingOscillator],
    ring_family: str,
    method: str,
    period_count: int,
    seeds: Sequence[Optional[int]],
    divider: Optional[RippleDivider] = None,
) -> List[JitterMeasurementResult]:
    """Batched jitter-vs-length: one vectorized kernel call for all lengths.

    IRO campaigns are bit-identical to the event path (single stream per
    length, same derived seed).  STR campaigns with the ``population``
    method split each length into :data:`STR_BATCH_REPLICAS` seed-derived
    replicas and pool the period populations — statistically equivalent,
    and what gives the wave kernel its batch width.  Other STR methods
    need one contiguous trace and run a single replica per length.
    """
    from repro.simulation.batch import (
        IROBatchSpec,
        STRBatchSpec,
        simulate_iro_batch,
        simulate_str_batch,
    )

    warmup = JITTER_WARMUP_PERIODS
    if ring_family == "iro":
        specs = [
            IROBatchSpec.from_ring(
                ring, edge_count=2 * (period_count + warmup) + 1, seed=point_seed
            )
            for ring, point_seed in zip(rings, seeds)
        ]
        result = simulate_iro_batch(specs)
        return [
            jitter_from_trace(
                ring, trace.skip_edges(2 * warmup), method, point_seed, divider
            )
            for ring, trace, point_seed in zip(rings, result.traces, seeds)
        ]

    replicas = 1
    if method == "population":
        replicas = max(1, min(STR_BATCH_REPLICAS, period_count // (2 * warmup)))
    per_replica = -(-period_count // replicas)  # ceil division
    specs = []
    for ring, point_seed in zip(rings, seeds):
        for child in spawn_seeds(point_seed, replicas):
            specs.append(
                STRBatchSpec.from_ring(
                    ring,
                    edge_count=2 * (per_replica + warmup) + 1,
                    seed=child,
                )
            )
    result = simulate_str_batch(specs)
    measurements = []
    for index, (ring, point_seed) in enumerate(zip(rings, seeds)):
        traces = [
            trace.skip_edges(2 * warmup)
            for trace in result.traces[index * replicas : (index + 1) * replicas]
        ]
        if replicas == 1:
            measurements.append(
                jitter_from_trace(ring, traces[0], method, point_seed, divider)
            )
            continue
        pooled = np.concatenate([trace.periods_ps() for trace in traces])
        measurements.append(
            JitterMeasurementResult(
                ring_name=ring.name,
                stage_count=ring.stage_count,
                sigma_period_ps=float(np.std(pooled, ddof=1)),
                mean_period_ps=float(np.mean(pooled)),
                method=method,
            )
        )
    return measurements


def jitter_versus_length(
    board: Board,
    lengths: Sequence[int],
    ring_family: str,
    method: str = "population",
    period_count: int = 4096,
    seed: Optional[int] = 0,
    backend: str = "batch",
) -> List[JitterMeasurementResult]:
    """Period jitter as a function of ring length (Figs. 11 and 12).

    Every length gets its own seed spawned from the integer root
    ``seed`` (a ``numpy.random.Generator`` raises ``TypeError``), on
    either backend.  ``backend="batch"`` (default) advances every length
    in one vectorized kernel call.  ``backend="event"`` runs the oracle
    instead: :func:`measure_period_jitter` on the event engine, one
    length after another, in-process.
    """
    from repro.rings.iro import InverterRingOscillator
    from repro.rings.str_ring import SelfTimedRing

    if ring_family not in ("iro", "str"):
        raise ValueError(f"ring_family must be 'iro' or 'str', got {ring_family!r}")
    if backend not in ("event", "batch"):
        raise ValueError(f"backend must be 'event' or 'batch', got {backend!r}")
    with span(
        "jitter_versus_length", family=ring_family, lengths=len(lengths), backend=backend
    ):
        _log.info(
            "jitter_versus_length.start",
            family=ring_family,
            lengths=[int(length) for length in lengths],
            period_count=period_count,
        )
        rings: List[RingOscillator] = []
        for length in lengths:
            if ring_family == "iro":
                rings.append(InverterRingOscillator.on_board(board, length))
            else:
                rings.append(SelfTimedRing.on_board(board, length))
        seeds = spawn_seeds(seed, len(rings))
        if backend == "batch":
            results = _jitter_versus_length_batch(
                rings, ring_family, method, period_count, seeds
            )
        else:
            results = [
                measure_period_jitter(
                    ring,
                    method=method,
                    period_count=period_count,
                    seed=point_seed,
                    backend="event",
                )
                for ring, point_seed in zip(rings, seeds)
            ]
        _log.info(
            "jitter_versus_length.complete",
            family=ring_family,
            points=len(results),
            backend=backend,
        )
        return results

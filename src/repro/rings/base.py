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
   default; ``backend="event"`` selects the per-event engine, which is
   the oracle the kernel is tested against.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

import numpy as np

from repro.simulation.noise import DeterministicModulation, SeedLike
from repro.simulation.waveform import EdgeTrace
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


class RingOscillator(abc.ABC):
    """Base class for resolved ring oscillators."""

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
    @abc.abstractmethod
    def simulate(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
        backend: str = "batch",
    ) -> SimulationResult:
        """Run the simulation for ``period_count`` periods.

        ``backend="batch"`` (default) routes through the vectorized
        kernel in :mod:`repro.simulation.batch`, falling back to the
        event engine (counted in ``repro.batch.fallbacks``) for a
        configuration the kernel rejects; ``backend="event"`` is the
        per-event reference engine, the oracle.
        """

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

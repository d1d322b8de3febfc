"""The elementary oscillator-based TRNG.

A jittery ring oscillator is sampled by a (much slower) reference clock;
between two samples the oscillator accumulates phase jitter, and once the
accumulated jitter is comparable to the oscillator period the sampled bit
becomes unpredictable.  The operating point is summarized by the quality
factor ``Q`` of :mod:`repro.trng.phasewalk`, whose phase random walk is
also the fast bit generator; the event-driven ring simulation, sampled
edge by edge, is kept as its oracle.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import DeterministicModulation, SeedLike, make_rng
from repro.trng.phasewalk import PhaseWalkTrng, predicted_shannon_entropy, quality_factor
from repro.trng.sampler import JitteryClock, sample_clock_at


@dataclasses.dataclass(frozen=True)
class TrngDesignPoint:
    """Resolved operating point of an elementary TRNG."""

    oscillator_period_ps: float
    reference_period_ps: float
    period_jitter_ps: float

    @property
    def periods_per_sample(self) -> float:
        return self.reference_period_ps / self.oscillator_period_ps

    @property
    def q_factor(self) -> float:
        return quality_factor(
            self.period_jitter_ps, self.oscillator_period_ps, self.reference_period_ps
        )

    @property
    def entropy_bound(self) -> float:
        return predicted_shannon_entropy(self.q_factor)


class ElementaryTrng:
    """Elementary TRNG: a ring oscillator sampled by a reference clock.

    Parameters
    ----------
    ring:
        The entropy source (either ring family).
    reference_period_ps:
        Sampling period of the reference clock.  Must be slower than the
        ring (subsampling), otherwise the construction is meaningless.
    use_simulation:
        ``True`` samples the edge timeline of the event-engine simulation
        (slow, exact — the oracle); ``False`` (default) the phase random
        walk of :class:`PhaseWalkTrng` (O(1) per bit).
    """

    def __init__(
        self,
        ring: RingOscillator,
        reference_period_ps: float,
        use_simulation: bool = False,
    ) -> None:
        self._ring = ring
        self._walk = PhaseWalkTrng.from_ring(ring, reference_period_ps)
        self._use_simulation = use_simulation

    @property
    def ring(self) -> RingOscillator:
        return self._ring

    @property
    def reference_period_ps(self) -> float:
        return self._walk.reference_period_ps

    def design_point(self) -> TrngDesignPoint:
        """Analytical operating point of this generator."""
        return TrngDesignPoint(
            oscillator_period_ps=self._walk.period_ps,
            reference_period_ps=self._walk.reference_period_ps,
            period_jitter_ps=self._walk.period_jitter_ps,
        )

    def predicted_entropy_per_bit(self) -> float:
        """Entropy lower bound at the analytical operating point."""
        return self.design_point().entropy_bound

    # ------------------------------------------------------------------
    # bit generation
    # ------------------------------------------------------------------
    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
    ) -> np.ndarray:
        """Generate ``bit_count`` raw bits.

        The initial phase between the two clocks is drawn from ``seed``,
        modelling the unknown power-up phase of real hardware.
        """
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        if not self._use_simulation:
            return self._walk.generate(bit_count, seed=rng, modulation=modulation)

        # The oracle: D flip-flop sampling of the event-engine edge timeline.
        def simulated_periods(count: int) -> np.ndarray:
            return self._ring.simulate(
                count, seed=rng, modulation=modulation, backend="event"
            ).trace.periods_ps()

        nominal_period = self._walk.period_ps
        reference_period = self._walk.reference_period_ps
        periods_needed = int(math.ceil((bit_count + 2) * reference_period / nominal_period) + 8)
        periods = simulated_periods(periods_needed)
        clock = JitteryClock(periods)
        first_sample = float(rng.uniform(0.0, reference_period))
        # Guard: the realized timeline may be slightly shorter than the
        # nominal estimate when periods came out long; extend if needed.
        while clock.total_time_ps < first_sample + reference_period * bit_count:
            periods = np.concatenate([periods, simulated_periods(periods_needed // 4 + 8)])
            clock = JitteryClock(periods)
        return sample_clock_at(clock, reference_period, bit_count, first_sample)

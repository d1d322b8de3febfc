"""Multi-phase STR TRNG — the paper's announced follow-up design.

The paper closes with "our future works will focus on exploiting the STR
properties for designing a robust TRNG"; the authors' follow-up (the
very-high-speed STR TRNG) samples *all L stage outputs at once*.  The L
stages of an STR are copies of the same oscillation shifted by one hop
delay each; when ``gcd(L, NT) = 1`` the toggles of all stages interleave
into a uniform comb with tick spacing

    ``delta = T / (2 L)``

(verified by the event-driven model: the noise-free steady state yields
exactly one spacing value).  XOR-ing the L sampled bits is equivalent to
sampling a *virtual oscillator* of period ``T / L`` — the parity flips at
every comb tick — so the sampler needs ``L^2`` times less jitter
accumulation than the elementary single-output TRNG to reach the same
entropy: that is the "very high speed" headline, and it works *because*
the STR period jitter is per-stage, not per-ring (Eq. 5).

Two evaluation paths, mirroring the ring models:

* :class:`MultiphaseStrTrng` — exact: event-driven simulation of all
  stages, bits from the merged toggle comb;
* :class:`MultiphaseModel` — fast: the :class:`PhaseWalkTrng` of the
  virtual oscillator, whose period ``T / L`` accumulates the ring's
  measured diffusion variance ``sigma_d^2`` per ring period, i.e.
  ``sigma_d^2 / L`` per virtual period; O(1) per bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.rings.base import RingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SeedLike, make_rng
from repro.stats.accumulation import accumulation_profile
from repro.trng.phasewalk import PhaseWalkTrng, predicted_shannon_entropy, quality_factor
from repro.trng.phasewalk import reference_period_for_q


def validate_multiphase_configuration(stage_count: int, token_count: int) -> None:
    """The comb is uniform only when ``gcd(L, NT) = 1``.

    With a common divisor g, g stage toggles coincide and the effective
    phase resolution degrades from ``T/(2L)`` to ``g * T/(2L)`` — the
    balanced rings of the characterization experiments (gcd = L/2!) are
    the worst possible choice for multi-phase extraction.
    """
    if math.gcd(stage_count, token_count) != 1:
        raise ValueError(
            f"multi-phase extraction needs gcd(L, NT) = 1; got "
            f"gcd({stage_count}, {token_count}) = "
            f"{math.gcd(stage_count, token_count)} — pick e.g. an odd L "
            "with an even NT near L/2"
        )


@dataclasses.dataclass(frozen=True)
class MultiphaseDesignPoint:
    """Operating point of a multi-phase sampler."""

    period_ps: float
    stage_count: int
    reference_period_ps: float
    diffusion_sigma_ps: float

    @property
    def virtual_period_ps(self) -> float:
        """Period of the XOR parity signal, ``T / L``."""
        return self.period_ps / self.stage_count

    @property
    def virtual_jitter_ps(self) -> float:
        """Per-virtual-period jitter, ``sigma_d / sqrt(L)``.

        ``L`` virtual periods span one ring period and together accumulate
        its diffusion variance ``sigma_d^2``.
        """
        return self.diffusion_sigma_ps / math.sqrt(self.stage_count)

    @property
    def q_factor(self) -> float:
        """Quality factor of the virtual oscillator.

        The multi-phase analogue of the elementary TRNG's Q, larger by
        ``L^2`` at equal reference period.
        """
        return quality_factor(
            self.virtual_jitter_ps, self.virtual_period_ps, self.reference_period_ps
        )

    @property
    def entropy_bound(self) -> float:
        return predicted_shannon_entropy(self.q_factor)


def measure_diffusion_sigma_ps(
    ring: RingOscillator, period_count: int = 4096, seed: SeedLike = 0
) -> float:
    """Long-run phase diffusion rate of the ring, in ps per sqrt(period).

    The quantity that actually accumulates between TRNG samples: STR
    periods are anticorrelated, so this sits *below* the single-period
    sigma (see the FIG10 experiment notes).  Measured on the batch
    kernel, which the phase walk takes as its oracle.
    """
    result = ring.simulate(period_count, seed=seed)
    profile = accumulation_profile(result.trace.periods_ps())
    return profile.diffusion_sigma_ps


class MultiphaseStrTrng:
    """Exact multi-phase sampler on the event-driven STR model.

    Parameters
    ----------
    ring:
        A resolved STR with ``gcd(L, NT) = 1``.
    reference_period_ps:
        Sampling period; must exceed the oscillation period (each sample
        sees at least one full revolution of fresh comb).
    """

    def __init__(self, ring: SelfTimedRing, reference_period_ps: float) -> None:
        validate_multiphase_configuration(ring.stage_count, ring.token_count)
        period = ring.predicted_period_ps()
        if reference_period_ps <= period:
            raise ValueError(
                f"reference period ({reference_period_ps} ps) must exceed "
                f"the oscillation period ({period:.1f} ps)"
            )
        self._ring = ring
        self._reference_period_ps = float(reference_period_ps)

    @property
    def ring(self) -> SelfTimedRing:
        return self._ring

    @property
    def reference_period_ps(self) -> float:
        return self._reference_period_ps

    def design_point(self, diffusion_sigma_ps: Optional[float] = None) -> MultiphaseDesignPoint:
        """Operating point; measures the diffusion rate unless given."""
        if diffusion_sigma_ps is None:
            diffusion_sigma_ps = measure_diffusion_sigma_ps(self._ring)
        return MultiphaseDesignPoint(
            period_ps=self._ring.predicted_period_ps(),
            stage_count=self._ring.stage_count,
            reference_period_ps=self._reference_period_ps,
            diffusion_sigma_ps=diffusion_sigma_ps,
        )

    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        warmup_periods: int = 256,
    ) -> np.ndarray:
        """Generate bits: XOR of all stages, sampled every reference period.

        The XOR output equals the parity of the number of comb ticks
        elapsed, so the bits come straight from a ``searchsorted`` over
        the merged toggle stream.
        """
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        period = self._ring.predicted_period_ps()
        periods_needed = int(math.ceil((bit_count + 2) * self._reference_period_ps / period)) + 4
        result = self._ring.simulate_phases(
            periods_needed, seed=rng, warmup_periods=warmup_periods
        )
        comb = result.merged_edge_times_ps
        first_sample = comb[0] + float(rng.uniform(0.0, self._reference_period_ps))
        sample_times = first_sample + self._reference_period_ps * np.arange(bit_count)
        if sample_times[-1] > comb[-1]:
            raise RuntimeError(
                "comb too short for the requested bits; increase periods "
                f"(timeline {comb[-1] - comb[0]:.0f} ps, needed "
                f"{sample_times[-1] - comb[0]:.0f} ps)"
            )
        counts = np.searchsorted(comb, sample_times, side="right")
        return (counts % 2).astype(int)


class MultiphaseModel:
    """Fast model of the multi-phase sampler.

    The XOR output is the parity of the comb ticks elapsed, i.e. the level
    of a virtual oscillator of period ``T / L`` — high on its odd comb
    intervals, where the phase walk's convention reads low — so the bits
    are the inverted :class:`PhaseWalkTrng` bits of that oscillator.
    """

    def __init__(
        self,
        period_ps: float,
        stage_count: int,
        diffusion_sigma_ps: float,
        reference_period_ps: float,
    ) -> None:
        if stage_count < 3:
            raise ValueError(f"need at least 3 stages, got {stage_count}")
        self.period_ps = float(period_ps)
        self.stage_count = int(stage_count)
        self.diffusion_sigma_ps = float(diffusion_sigma_ps)
        self.reference_period_ps = float(reference_period_ps)
        point = self.design_point()
        # No supply term: the comb model takes no modulation.
        self._walk = PhaseWalkTrng(
            point.virtual_period_ps, point.virtual_jitter_ps, 0.0, self.reference_period_ps
        )

    @classmethod
    def from_ring(
        cls,
        ring: SelfTimedRing,
        reference_period_ps: float,
        diffusion_sigma_ps: Optional[float] = None,
        seed: SeedLike = 0,
    ) -> "MultiphaseModel":
        validate_multiphase_configuration(ring.stage_count, ring.token_count)
        if diffusion_sigma_ps is None:
            diffusion_sigma_ps = measure_diffusion_sigma_ps(ring, seed=seed)
        return cls(
            period_ps=ring.predicted_period_ps(),
            stage_count=ring.stage_count,
            diffusion_sigma_ps=diffusion_sigma_ps,
            reference_period_ps=reference_period_ps,
        )

    def design_point(self) -> MultiphaseDesignPoint:
        return MultiphaseDesignPoint(
            period_ps=self.period_ps,
            stage_count=self.stage_count,
            reference_period_ps=self.reference_period_ps,
            diffusion_sigma_ps=self.diffusion_sigma_ps,
        )

    def generate(self, bit_count: int, seed: SeedLike = None) -> np.ndarray:
        """O(1)-per-bit generation through the virtual oscillator's walk."""
        return 1 - self._walk.generate(bit_count, seed=seed)


def reference_period_for_multiphase_q(
    period_ps: float,
    stage_count: int,
    diffusion_sigma_ps: float,
    q_target: float,
) -> float:
    """Reference period reaching a target Q with multi-phase extraction.

    ``L^2`` shorter than the elementary sampler's provisioning for the
    same oscillator — the throughput argument of the follow-up design.
    """
    return reference_period_for_q(
        period_ps / stage_count, diffusion_sigma_ps / math.sqrt(stage_count), q_target
    )

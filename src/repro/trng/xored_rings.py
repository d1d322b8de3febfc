"""XOR-of-many-rings TRNG (the Sunar-style IRO construction).

The mainstream IRO-based TRNG of the paper's era (Sunar et al.'s
provably-secure design and its descendants, the lineage of the paper's
reference [1]): many small *independent* IROs, each sampled by the same
reference clock, their bits XOR-ed into one output.  Bias shrinks
exponentially in the ring count (``2^(N-1) prod eps_i`` for independent
biases ``eps_i``), so the construction reaches usable output quality at
reference periods where a single ring is still strongly patterned.

This is the natural *IRO-side* competitor to the STR's multi-phase
design (EXT4): both spend silicon to multiply the entropy rate, one by
replicating whole rings, the other by tapping every stage of one ring.
EXT9 compares them at an equal LUT budget.

Caveats carried over from the literature: the security argument needs
the rings *pairwise independent* (identical rings on real silicon can
couple and lock — not modelled here, flagged in the design point), and
XOR bias suppression is not the same as entropy against an attacker who
observes the individual rings.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import DeterministicModulation, SeedLike, make_rng
from repro.trng.phasewalk import PhaseWalkTrng, predicted_shannon_entropy, quality_factor


@dataclasses.dataclass(frozen=True)
class XoredDesignPoint:
    """Operating point of an XOR-of-rings generator."""

    ring_count: int
    period_ps: float
    period_jitter_ps: float
    reference_period_ps: float

    @property
    def per_ring_q(self) -> float:
        return quality_factor(
            self.period_jitter_ps, self.period_ps, self.reference_period_ps
        )

    @property
    def per_ring_entropy(self) -> float:
        return predicted_shannon_entropy(self.per_ring_q)

    @property
    def xor_bias_bound(self) -> float:
        """Piling-up bound on the output bias from the per-ring entropy.

        A per-ring Shannon entropy ``h`` corresponds to a bias
        ``eps = sqrt((1 - h) ln 2 / 2)`` to second order; XOR of ``N``
        independent bits has bias ``2^(N-1) prod eps_i``.
        """
        h = self.per_ring_entropy
        eps = math.sqrt(max(0.0, (1.0 - h) * math.log(2.0) / 2.0))
        if eps == 0.0:
            return 0.0
        log_bias = (self.ring_count - 1) * math.log(2.0) + self.ring_count * math.log(
            min(eps, 0.5)
        )
        return math.exp(min(log_bias, 0.0))


class XoredRingTrng:
    """N independent ring oscillators, sampled together and XOR-ed.

    Built either from explicit per-ring parameters or from a board
    (:meth:`on_board` draws each ring's frequency from the device's
    process model so the rings are realistically *not* identical —
    identical rings would be the coupling-prone corner the literature
    warns about).
    """

    def __init__(
        self,
        period_ps_per_ring: Sequence[float],
        period_jitter_ps: float,
        reference_period_ps: float,
        supply_weight: float = 1.0,
    ) -> None:
        self._models = [
            PhaseWalkTrng(period, period_jitter_ps, supply_weight, reference_period_ps)
            for period in period_ps_per_ring
        ]
        if not self._models:
            raise ValueError("need at least one ring")
        self._reference_period_ps = float(reference_period_ps)
        self._period_jitter_ps = float(period_jitter_ps)

    @classmethod
    def on_board(
        cls,
        board,
        stage_count: int,
        ring_count: int,
        reference_period_ps: float,
    ) -> "XoredRingTrng":
        """Place ``ring_count`` IROs side by side on one device."""
        from repro.rings.iro import InverterRingOscillator

        if ring_count < 1:
            raise ValueError(f"ring count must be positive, got {ring_count}")
        rings: List[RingOscillator] = [
            InverterRingOscillator.on_board(
                board, stage_count, first_lut=index * stage_count
            )
            for index in range(ring_count)
        ]
        return cls(
            period_ps_per_ring=[ring.predicted_period_ps() for ring in rings],
            period_jitter_ps=float(
                np.mean([ring.predicted_period_jitter_ps() for ring in rings])
            ),
            reference_period_ps=reference_period_ps,
            supply_weight=float(np.mean([ring.mean_supply_weight for ring in rings])),
        )

    @property
    def ring_count(self) -> int:
        return len(self._models)

    @property
    def reference_period_ps(self) -> float:
        return self._reference_period_ps

    def design_point(self) -> XoredDesignPoint:
        return XoredDesignPoint(
            ring_count=self.ring_count,
            period_ps=float(np.mean([model.period_ps for model in self._models])),
            period_jitter_ps=self._period_jitter_ps,
            reference_period_ps=self._reference_period_ps,
        )

    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
    ) -> np.ndarray:
        """XOR the sampled bits of all rings (independent phase walks)."""
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        output = np.zeros(bit_count, dtype=int)
        for model in self._models:
            output ^= model.generate(bit_count, seed=rng, modulation=modulation)
        return output

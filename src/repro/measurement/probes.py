"""The LVDS output path: on-chip buffer, pins, differential probe.

The paper routes the oscillator to the scope through the device's LVDS
interface and a 4 GHz active differential probe precisely because the
standard I/O circuitry is slow and noisy.  We model the output path as a
fixed propagation delay plus a small additive Gaussian jitter per edge;
the *standard* (non-LVDS) path carries substantially more jitter, which
lets experiments show why the authors bothered.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.simulation.noise import SeedLike, make_rng
from repro.simulation.waveform import EdgeTrace


@dataclasses.dataclass(frozen=True)
class LvdsOutputPath:
    """An output buffer + probe path.

    Attributes
    ----------
    delay_ps:
        Fixed propagation delay (irrelevant for jitter, kept for
        completeness of the timing budget).
    jitter_sigma_ps:
        Additive Gaussian edge jitter of the whole path.  Around 1-2 ps
        for the LVDS + active-probe chain; an order of magnitude more for
        standard single-ended I/O.
    """

    delay_ps: float = 800.0
    jitter_sigma_ps: float = 1.0

    def __post_init__(self) -> None:
        if self.delay_ps < 0.0:
            raise ValueError(f"delay must be non-negative, got {self.delay_ps}")
        if self.jitter_sigma_ps < 0.0:
            raise ValueError(f"jitter sigma must be non-negative, got {self.jitter_sigma_ps}")

    @classmethod
    def lvds(cls) -> "LvdsOutputPath":
        """The paper's measurement path: LVDS + 4 GHz differential probe."""
        return cls(delay_ps=800.0, jitter_sigma_ps=1.0)

    def transport(self, trace: EdgeTrace, seed: SeedLike = None) -> EdgeTrace:
        """Propagate an edge trace through the output path.

        Adds the fixed delay and independent Gaussian jitter per edge.
        Edges are re-sorted afterwards: with pathological jitter values
        two edges could swap, and a monotone trace is part of this
        type's contract.
        """
        rng = make_rng(seed)
        times = trace.times_ps + self.delay_ps
        if self.jitter_sigma_ps > 0.0 and len(trace) > 0:
            times = times + rng.normal(0.0, self.jitter_sigma_ps, size=len(trace))
        times = np.sort(times)
        return EdgeTrace(times, first_value=trace.first_value)

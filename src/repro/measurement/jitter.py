"""Jitter measurement procedures (paper Section V-D).

Two procedures are provided, mirroring what the authors did:

* :func:`measure_period_jitter_direct` — point the scope at the ring
  output and read sigma_period.  Faithful for tens of picoseconds,
  *biased* for the 2-3 ps the rings actually produce, because the scope's
  constant time-stamp error adds in quadrature.
* :func:`measure_period_jitter_divider` — the Fig. 10 method: divide the
  oscillator on-chip, measure the cycle-to-cycle jitter of the divided
  signal (now tens of picoseconds, far above scope noise), check the
  method's normality hypothesis, and recover sigma_p via Eq. 6.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.jitter_model import recover_period_jitter_from_divided
from repro.measurement.counters import RippleDivider
from repro.measurement.oscilloscope import Oscilloscope
from repro.measurement.probes import LvdsOutputPath
from repro.simulation.noise import SeedLike, make_rng
from repro.simulation.waveform import EdgeTrace
from repro.stats.normality import NormalityReport, check_normality


@dataclasses.dataclass(frozen=True)
class DirectJitterReading:
    """Result of the naive direct measurement."""

    sigma_period_ps: float
    mean_period_ps: float
    period_count: int
    timestamp_noise_ps: float


@dataclasses.dataclass(frozen=True)
class DividerJitterReading:
    """Result of the Fig. 10 divider method."""

    sigma_period_ps: float
    divided_cycle_to_cycle_ps: float
    periods_per_measurement: int
    measurement_count: int
    normality: NormalityReport

    @property
    def hypothesis_ok(self) -> bool:
        """The method's pre-condition: divided c2c jitter is Gaussian.

        The paper "systematically verifies this hypothesis ... by simply
        checking the cycle-to-cycle period histogram of osc_mes".
        """
        return self.normality.is_normal


def measure_period_jitter_direct(
    trace: EdgeTrace,
    scope: Optional[Oscilloscope] = None,
    output_path: Optional[LvdsOutputPath] = None,
    seed: SeedLike = None,
) -> DirectJitterReading:
    """Read sigma_period directly off the scope."""
    rng = make_rng(seed)
    scope = scope if scope is not None else Oscilloscope(seed=rng)
    path = output_path if output_path is not None else LvdsOutputPath.lvds()
    transported = path.transport(trace, seed=rng)
    acquired = scope.acquire(transported)
    periods = acquired.periods_ps()
    return DirectJitterReading(
        sigma_period_ps=float(np.std(periods, ddof=1)),
        mean_period_ps=float(np.mean(periods)),
        period_count=int(periods.size),
        timestamp_noise_ps=scope.spec.timestamp_noise_ps,
    )


def measure_period_jitter_divider(
    trace: EdgeTrace,
    divider: RippleDivider = RippleDivider(),
    scope: Optional[Oscilloscope] = None,
    output_path: Optional[LvdsOutputPath] = None,
    seed: SeedLike = None,
) -> DividerJitterReading:
    """Recover sigma_p with the on-chip divider method (Fig. 10, Eq. 6)."""
    rng = make_rng(seed)
    scope = scope if scope is not None else Oscilloscope(seed=rng)
    path = output_path if output_path is not None else LvdsOutputPath.lvds()

    divided = divider.divide(trace, seed=rng)
    transported = path.transport(divided, seed=rng)
    acquired = scope.acquire(transported)
    divided_periods = acquired.periods_ps()
    if divided_periods.size < 8:
        raise ValueError(
            f"only {divided_periods.size} divided periods available; feed a "
            "longer trace or a smaller divider"
        )
    deltas = np.diff(divided_periods)
    sigma_cc = float(np.std(deltas, ddof=1))
    normality = check_normality(deltas)
    sigma_p = recover_period_jitter_from_divided(sigma_cc, divider.periods_per_measurement)
    return DividerJitterReading(
        sigma_period_ps=sigma_p,
        divided_cycle_to_cycle_ps=sigma_cc,
        periods_per_measurement=divider.periods_per_measurement,
        measurement_count=int(divided_periods.size),
        normality=normality,
    )

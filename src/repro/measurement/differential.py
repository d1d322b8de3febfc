"""Differential jitter-transfer measurement with a co-located ring pair.

The paper measures period jitter with the ÷2ⁿ counter method (Fig. 10 /
Eq. 6, claim C7): accumulate ``n`` ring periods per measurement window
and first-difference successive windows.  That first difference is what
makes the method vulnerable to *common-mode* deterministic jitter:
supply ripple whose period sits near **two** measurement windows drives
successive windows in anti-phase, so the cycle-to-cycle statistic
absorbs the full ripple swing and the recovered sigma reads high.

The differential (jitter-transfer) alternative places a **second,
co-located ring** on the same die.  Both rings share every board-level
delay factor — the C6 process model's global speed factor statically,
and any global deterministic modulation dynamically — while their local
Gaussian jitter streams stay independent.  Measuring both rings over
*simultaneously triggered* windows and subtracting cancels the shared
modulation in each window pair; what survives is the two rings'
independent accumulated jitter, from which the per-ring sigma follows::

    D_j = W_Aj - W_Bj            (same trigger, same absolute window)
    Var(D) = n * (sigma_A^2 + sigma_B^2)   ->   sigma_p = sqrt(Var(D) / 2n)

The measurement procedure modelled here is the re-armed counter: a
shared reference clock starts window ``j`` of *both* rings at the same
instant ``j * spacing``; each counter then times its own ring's next
``n`` periods.  (Successive windows therefore sample disjoint stretches
of each ring's period stream, which keeps the D_j independent.)  The
rings' nominal periods differ by a few percent — placement and per-LUT
mismatch — so the two windows do not end together, and a small fraction
of the common mode (the unshared window tail) leaks through; the EXT12
experiment quantifies exactly that residual against the counter
method's full-swing exposure.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.jitter_model import recover_period_jitter_from_divided
from repro.simulation.noise import (
    DeterministicModulation,
    SeedLike,
    SinusoidalModulation,
    make_rng,
)


@dataclasses.dataclass(frozen=True)
class ColocatedPair:
    """Two rings of the same design placed side by side on one board.

    Both rings resolve their delays against the *same*
    :class:`~repro.fpga.process.DeviceVariation` — they share the
    device's global speed factor — but occupy disjoint LUT columns
    (``first_lut`` offset), so their per-LUT mismatch draws differ.
    That is the physical layout of a differential measurement: common
    board, common environment, independent local noise.
    """

    ring_a: object
    ring_b: object

    @classmethod
    def on_board(cls, board, stage_count: int = 9, lut_gap: Optional[int] = None) -> "ColocatedPair":
        """Place the pair on ``board``: ring A at LUT 0, ring B just after.

        ``lut_gap`` overrides ring B's starting LUT (default: immediately
        adjacent, ``first_lut = stage_count``).
        """
        from repro.rings.iro import InverterRingOscillator

        if stage_count < 3:
            raise ValueError(f"need at least 3 stages, got {stage_count}")
        offset = int(lut_gap) if lut_gap is not None else int(stage_count)
        if offset < stage_count:
            raise ValueError(
                f"lut_gap {offset} would overlap ring A's {stage_count} LUTs"
            )
        return cls(
            ring_a=InverterRingOscillator.on_board(board, stage_count, first_lut=0),
            ring_b=InverterRingOscillator.on_board(board, stage_count, first_lut=offset),
        )

    @property
    def trigger_spacing_ps(self) -> float:
        """Shared re-arm period: both counters restart every this often.

        Slightly above the slower ring's nominal window so a window
        nominally completes before the next trigger.
        """
        return 1.05 * max(
            self.ring_a.predicted_period_ps(), self.ring_b.predicted_period_ps()
        )

    def spacing_for(self, periods_per_window: int) -> float:
        return float(periods_per_window) * self.trigger_spacing_ps

    @property
    def true_sigma_ps(self) -> float:
        """RMS of the two rings' analytic period jitters (the estimand)."""
        return float(
            np.sqrt(
                0.5
                * (
                    self.ring_a.predicted_period_jitter_ps() ** 2
                    + self.ring_b.predicted_period_jitter_ps() ** 2
                )
            )
        )


def worst_case_ripple(
    pair: ColocatedPair, periods_per_window: int, amplitude: float
) -> SinusoidalModulation:
    """The ripple the counter method is most exposed to.

    Period = two measurement windows: successive windows then average
    anti-phase half-cycles of the ripple, so the first difference of the
    counter method absorbs the full swing while simultaneous window
    *pairs* still share (and cancel) it.
    """
    return SinusoidalModulation(
        amplitude=float(amplitude),
        period_ps=2.0 * pair.spacing_for(periods_per_window),
    )


def windowed_durations(
    ring,
    window_count: int,
    periods_per_window: int,
    seed: SeedLike = None,
    modulation: Optional[DeterministicModulation] = None,
    spacing_ps: Optional[float] = None,
) -> np.ndarray:
    """Re-armed counter windows: duration of ``n`` periods from each trigger.

    Window ``j`` starts at the shared absolute instant ``j * spacing_ps``
    and sums ``periods_per_window`` consecutive periods, each drawn as
    ``T * (1 + w * factor(t)) + N(0, sigma_p^2)`` with the modulation
    evaluated at the period's nominal start time — the same per-period
    model as :meth:`InverterRingOscillator.sample_periods`, restarted at
    every trigger.
    """
    if window_count < 2:
        raise ValueError(f"need at least 2 windows, got {window_count}")
    if periods_per_window < 1:
        raise ValueError(
            f"periods per window must be positive, got {periods_per_window}"
        )
    nominal = ring.predicted_period_ps()
    if spacing_ps is None:
        spacing_ps = float(periods_per_window) * nominal
    if spacing_ps <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing_ps}")
    rng = make_rng(seed)
    weight = ring.mean_supply_weight
    sigma = ring.predicted_period_jitter_ps()
    starts = (
        spacing_ps * np.arange(window_count)[:, None]
        + nominal * np.arange(periods_per_window)[None, :]
    )
    if modulation is None:
        deterministic = np.full(window_count, nominal * periods_per_window)
    else:
        factors = modulation.factor_array(starts.reshape(-1)).reshape(starts.shape)
        deterministic = (nominal * (1.0 + weight * factors)).sum(axis=1)
    noise = rng.normal(0.0, sigma, size=(window_count, periods_per_window)).sum(axis=1)
    return deterministic + noise


@dataclasses.dataclass(frozen=True)
class DifferentialJitterReading:
    """One differential measurement and its counter-method reference.

    Both estimators consume the *same* windowed durations, so the
    comparison isolates the estimator, not the data: ``differential``
    subtracts simultaneous windows across rings (common mode cancels),
    ``counter`` first-differences successive windows of one ring (the
    C7 / Eq. 6 method, common mode survives).
    """

    window_count: int
    periods_per_window: int
    differential_sigma_ps: float
    counter_sigma_a_ps: float
    counter_sigma_b_ps: float
    true_sigma_a_ps: float
    true_sigma_b_ps: float

    @property
    def true_sigma_ps(self) -> float:
        return float(
            np.sqrt(0.5 * (self.true_sigma_a_ps**2 + self.true_sigma_b_ps**2))
        )

    @property
    def differential_bias(self) -> float:
        """Relative bias of the differential estimate vs the analytic sigma."""
        return self.differential_sigma_ps / self.true_sigma_ps - 1.0

    @property
    def counter_bias(self) -> float:
        """Relative bias of the (ring A) counter estimate vs its analytic sigma."""
        return self.counter_sigma_a_ps / self.true_sigma_a_ps - 1.0


def measure_pair(
    pair: ColocatedPair,
    window_count: int = 256,
    periods_per_window: int = 64,
    seed: SeedLike = None,
    modulation: Optional[DeterministicModulation] = None,
) -> DifferentialJitterReading:
    """Measure the pair once: differential and counter estimates side by side.

    The two rings draw independent noise streams (children of ``seed``)
    but see the identical modulation on the identical trigger grid —
    the simulation analogue of routing both rings to two channels of one
    measurement clock.
    """
    from repro.parallel.seeds import spawn_seeds

    seed_a, seed_b = spawn_seeds(seed, 2)
    spacing = pair.spacing_for(periods_per_window)
    durations_a = windowed_durations(
        pair.ring_a, window_count, periods_per_window, seed_a, modulation, spacing
    )
    durations_b = windowed_durations(
        pair.ring_b, window_count, periods_per_window, seed_b, modulation, spacing
    )
    difference = durations_a - durations_b
    differential_sigma = float(
        np.sqrt(np.var(difference, ddof=1) / (2.0 * periods_per_window))
    )
    counter_a = recover_period_jitter_from_divided(
        float(np.std(np.diff(durations_a), ddof=1)), periods_per_window
    )
    counter_b = recover_period_jitter_from_divided(
        float(np.std(np.diff(durations_b), ddof=1)), periods_per_window
    )
    return DifferentialJitterReading(
        window_count=int(window_count),
        periods_per_window=int(periods_per_window),
        differential_sigma_ps=differential_sigma,
        counter_sigma_a_ps=float(counter_a),
        counter_sigma_b_ps=float(counter_b),
        true_sigma_a_ps=float(pair.ring_a.predicted_period_jitter_ps()),
        true_sigma_b_ps=float(pair.ring_b.predicted_period_jitter_ps()),
    )

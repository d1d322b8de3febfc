"""Coherent-sampling TRNG (the paper's reference [7], Valtchanov et al.).

Two free-running oscillators with *close* periods: a flip-flop samples
ring A on every rising edge of ring B.  Because the periods differ by
only ``dT = |TA - TB|``, the sampled stream is a slow square wave — the
**beat signal** — with roughly ``TA / dT`` samples per beat period.  A
counter counts sampling edges per beat half-period; the accumulated
jitter of both rings makes the count wander by more than one, so the
counter LSB is the random output bit.  (This is the classic
counter-based extraction of [7], not mere subsampling: one output bit
per half-beat, with the *whole beat period's* accumulated jitter behind
it.)

Why the paper cares: the scheme only works while the two periods stay
inside a narrow band — too detuned and the beat gets short, the
accumulated jitter small, the counter deterministic.  "The designer
needs to guarantee that the ring oscillator frequencies will remain in
a required interval for all devices of the same family" — which is
exactly the extra-device dispersion of Table II, the STR's strong suit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import SeedLike, make_rng
from repro.trng.sampler import JitteryClock


def beat_period_ps(period_a_ps: float, period_b_ps: float) -> float:
    """``T_beat = Ta * Tb / |Ta - Tb|`` of two close periods."""
    if period_a_ps <= 0.0 or period_b_ps <= 0.0:
        raise ValueError("periods must be positive")
    difference = abs(period_a_ps - period_b_ps)
    if difference == 0.0:
        return math.inf
    return period_a_ps * period_b_ps / difference


@dataclasses.dataclass(frozen=True)
class CoherentDesignPoint:
    """Feasibility and entropy analysis of a coherent-sampling pair."""

    period_a_ps: float
    period_b_ps: float
    jitter_a_ps: float
    jitter_b_ps: float
    max_relative_detuning: float

    @property
    def relative_detuning(self) -> float:
        return abs(self.period_a_ps - self.period_b_ps) / min(
            self.period_a_ps, self.period_b_ps
        )

    @property
    def beat_period_ps(self) -> float:
        return beat_period_ps(self.period_a_ps, self.period_b_ps)

    @property
    def samples_per_beat(self) -> float:
        """Sampling edges per full beat period (the counter range is half)."""
        return self.beat_period_ps / self.period_b_ps

    @property
    def expected_count(self) -> float:
        """Expected counter value: samples per beat half-period."""
        return 0.5 * self.samples_per_beat

    @property
    def predicted_count_sigma(self) -> float:
        """Predicted std of the counter value.

        The relative phase of the two rings advances by ``dT`` and
        diffuses by ``sqrt(sa^2 + sb^2)`` per sample; the beat edge is a
        first passage of that drift-diffusion process, whose crossing
        index has ``sigma ~= sqrt(N) * sigma_step / dT`` with ``N`` the
        samples per half-beat.
        """
        difference = abs(self.period_a_ps - self.period_b_ps)
        if difference == 0.0:
            return math.inf
        step_sigma = math.hypot(self.jitter_a_ps, self.jitter_b_ps)
        return math.sqrt(self.expected_count) * step_sigma / difference

    @property
    def drift_to_diffusion_ratio(self) -> float:
        """Per-sample phase drift over per-sample phase diffusion.

        Above ~1 the beat signal advances monotonically and the counter
        cleanly measures half-beats; below it the relative phase
        random-walks back and forth across the sampling threshold, the
        beat fragments, and the counter statistics lose their meaning —
        coherent sampling has a *lower* detuning bound set by the jitter,
        not only the upper capture-band bound.
        """
        difference = abs(self.period_a_ps - self.period_b_ps)
        step_sigma = math.hypot(self.jitter_a_ps, self.jitter_b_ps)
        if step_sigma == 0.0:
            return math.inf
        return difference / step_sigma

    @property
    def is_drift_dominated(self) -> bool:
        return self.drift_to_diffusion_ratio >= 1.0

    @property
    def is_within_capture_band(self) -> bool:
        """True when the detuning stays inside the designed band."""
        return 0.0 < self.relative_detuning <= self.max_relative_detuning


class CoherentSamplingTrng:
    """A coherent-sampling pair built from two resolved rings.

    Parameters
    ----------
    sampled_ring, sampling_ring:
        The two oscillators; their nominal periods should be close.
        Whether a manufactured pair still is, is the device-dispersion
        question this class exposes (EXT2/EXT7).
    max_relative_detuning:
        Design capture band (default 2 %): beyond it the beat is too
        short for the counter and the generator refuses to run.
    """

    def __init__(
        self,
        sampled_ring: RingOscillator,
        sampling_ring: RingOscillator,
        max_relative_detuning: float = 0.02,
    ) -> None:
        if max_relative_detuning <= 0.0:
            raise ValueError(
                f"capture band must be positive, got {max_relative_detuning}"
            )
        self._sampled = sampled_ring
        self._sampling = sampling_ring
        self._max_detuning = max_relative_detuning

    def design_point(self) -> CoherentDesignPoint:
        return CoherentDesignPoint(
            period_a_ps=self._sampled.predicted_period_ps(),
            period_b_ps=self._sampling.predicted_period_ps(),
            jitter_a_ps=self._sampled.predicted_period_jitter_ps(),
            jitter_b_ps=self._sampling.predicted_period_jitter_ps(),
            max_relative_detuning=self._max_detuning,
        )

    # ------------------------------------------------------------------
    # signal chain
    # ------------------------------------------------------------------
    def beat_samples(self, sample_count: int, seed: SeedLike = None) -> np.ndarray:
        """The raw flip-flop output: ring A sampled at ring B's edges."""
        if sample_count < 1:
            raise ValueError(f"sample count must be positive, got {sample_count}")
        point = self.design_point()
        if not point.is_within_capture_band:
            raise ValueError(
                f"rings detuned by {point.relative_detuning:.3%}, outside the "
                f"{self._max_detuning:.3%} capture band"
            )
        rng = make_rng(seed)
        period_b = self._sampling.predicted_period_ps()
        periods_needed = (
            int(math.ceil((sample_count + 2) * period_b / self._sampled.predicted_period_ps()))
            + 8
        )
        sampled_periods = self._sampled.sample_periods(periods_needed, seed=rng)
        sampling_periods = self._sampling.sample_periods(sample_count + 2, seed=rng)
        clock = JitteryClock(sampled_periods)
        sample_times = np.cumsum(sampling_periods)[:sample_count]
        horizon = clock.total_time_ps
        if sample_times[-1] > horizon:
            keep = int(np.searchsorted(sample_times, horizon))
            sample_times = sample_times[:keep]
        return clock.value_at(sample_times).astype(int)

    def counter_values(self, sample_count: int, seed: SeedLike = None) -> np.ndarray:
        """Counter readings: run lengths of the beat signal (half-beats).

        The first and last (truncated) runs are discarded.
        """
        samples = self.beat_samples(sample_count, seed=seed)
        if samples.size < 4:
            raise ValueError("too few samples for a single beat")
        change_points = np.nonzero(np.diff(samples))[0]
        if change_points.size < 2:
            raise ValueError(
                "no complete beat half-period in the sample window; "
                "increase sample_count or reduce the detuning"
            )
        return np.diff(change_points)

    def generate(self, bit_count: int, seed: SeedLike = None) -> np.ndarray:
        """Generate bits: the LSB of each counter value."""
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        point = self.design_point()
        samples_needed = int(math.ceil((bit_count + 4) * point.expected_count)) + 16
        counts = self.counter_values(samples_needed, seed=seed)
        if counts.size < bit_count:
            raise RuntimeError(
                f"collected only {counts.size} counter values of {bit_count} "
                "requested; increase the margin"
            )
        return (counts[:bit_count] % 2).astype(int)

    def measured_count_statistics(
        self, beat_count: int = 256, seed: SeedLike = None
    ) -> "CountStatistics":
        """Mean/std of the counter population (the [7] characterization)."""
        point = self.design_point()
        samples_needed = int(math.ceil((beat_count + 4) * point.expected_count)) + 16
        counts = self.counter_values(samples_needed, seed=seed)
        return CountStatistics(
            mean=float(np.mean(counts)),
            sigma=float(np.std(counts, ddof=1)),
            sample_count=int(counts.size),
            lsb_bias=float(np.mean(counts % 2) - 0.5),
        )


@dataclasses.dataclass(frozen=True)
class CountStatistics:
    """Counter population statistics."""

    mean: float
    sigma: float
    sample_count: int
    lsb_bias: float

"""The phase-random-walk core of the fast TRNG models.

For realistic operating points the reference clock is four to five
orders of magnitude slower than the ring (a ~300 MHz ring sampled at a
few kHz to tens of kHz to accumulate enough jitter).  Building the full
edge timeline for that is hopeless; the standard equivalent model tracks
only the oscillator *phase* at the sampling instants:

    phi_{k+1} = phi_k + T_ref / T          (nominal advance, in periods)
                - (w / T) * integral of m  (deterministic supply term)
                + N(0, N sigma_p^2 / T^2)  (accumulated random jitter)

    bit_k = 1  iff  frac(phi_k) < 1/2

with ``N = T_ref / T`` periods per sample.  One output bit costs O(1)
regardless of how slow the reference is; the supply integral is exact
(:meth:`DeterministicModulation.integral_array`), so a ripple faster than
the reference cannot alias.  The elementary, XOR-of-rings and multi-phase
(virtual oscillator) designs all sample this walk; coherent sampling
keeps its edge timeline, as it samples at another ring's jittery edges.

The random increment's variance is the *quality factor* ``Q`` (Baudet
et al., the paper's reference [2] lineage), with the Shannon-entropy
lower bound per bit ``H >= 1 - (4 / (pi^2 ln 2)) exp(-4 pi^2 Q)``.  Only
the random jitter counts: an attacker who knows the injected waveform
reproduces the deterministic phase exactly (Section IV, after [2]).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import DeterministicModulation, SeedLike, make_rng


def quality_factor(
    period_jitter_ps: float, oscillator_period_ps: float, reference_period_ps: float
) -> float:
    """``Q = N sigma_p^2 / T_osc^2`` for the given operating point."""
    if period_jitter_ps < 0.0:
        raise ValueError(f"period jitter must be non-negative, got {period_jitter_ps}")
    if oscillator_period_ps <= 0.0 or reference_period_ps <= 0.0:
        raise ValueError("periods must be positive")
    periods_per_sample = reference_period_ps / oscillator_period_ps
    accumulated_variance = periods_per_sample * period_jitter_ps**2
    return accumulated_variance / oscillator_period_ps**2


def predicted_shannon_entropy(q_factor: float) -> float:
    """Shannon-entropy lower bound per bit for a quality factor ``Q``."""
    if q_factor < 0.0:
        raise ValueError(f"quality factor must be non-negative, got {q_factor}")
    bound = 1.0 - (4.0 / (math.pi**2 * math.log(2.0))) * math.exp(-4.0 * math.pi**2 * q_factor)
    return max(0.0, bound)


def reference_period_for_q(
    period_ps: float, period_jitter_ps: float, q_target: float
) -> float:
    """Reference period achieving a target quality factor ``Q``.

    Inverts :func:`quality_factor` for ``T_ref`` — the provisioning rule
    a designer uses once the entropy source is characterized, and the
    reason the paper's sigma measurements matter.
    """
    if q_target <= 0.0:
        raise ValueError(f"Q target must be positive, got {q_target}")
    if period_jitter_ps <= 0.0:
        raise ValueError("a jitter-free oscillator cannot reach any Q target")
    return q_target * period_ps**3 / period_jitter_ps**2


class PhaseWalkTrng:
    """A ring sampled by a reference clock, as a phase random walk.

    Parameters
    ----------
    period_ps:
        Oscillator period ``T``.
    period_jitter_ps:
        Per-period Gaussian jitter ``sigma_p`` (periods assumed
        independent, exact for IROs, slightly conservative for STRs).
    supply_weight:
        Relative response of the ring's delay to supply modulation
        (see :class:`repro.fpga.device.StageTiming`).
    reference_period_ps:
        Sampling period of the reference clock.

    The operating point is fixed at construction: the per-sample phase
    sigma is computed once, and the nominal phase ramp of the last
    ``bit_count`` generated is kept for reuse (one ramp per model).
    """

    def __init__(
        self,
        period_ps: float,
        period_jitter_ps: float,
        supply_weight: float,
        reference_period_ps: float,
    ) -> None:
        if period_ps <= 0.0:
            raise ValueError(f"period must be positive, got {period_ps}")
        if period_jitter_ps < 0.0:
            raise ValueError(f"jitter must be non-negative, got {period_jitter_ps}")
        if supply_weight < 0.0:
            raise ValueError(f"supply weight must be non-negative, got {supply_weight}")
        if reference_period_ps <= period_ps:
            raise ValueError(
                f"reference period ({reference_period_ps} ps) must exceed the "
                f"oscillator period ({period_ps} ps)"
            )
        self.period_ps = float(period_ps)
        self.period_jitter_ps = float(period_jitter_ps)
        self.supply_weight = float(supply_weight)
        self.reference_period_ps = float(reference_period_ps)
        self._periods_per_sample = self.reference_period_ps / self.period_ps
        self._phase_sigma = math.sqrt(self.q_factor)
        self._ramp = np.zeros(0)

    @classmethod
    def from_ring(cls, ring: RingOscillator, reference_period_ps: float) -> "PhaseWalkTrng":
        """Build the model from a resolved ring's analytical figures."""
        return cls(
            period_ps=ring.predicted_period_ps(),
            period_jitter_ps=ring.predicted_period_jitter_ps(),
            supply_weight=ring.mean_supply_weight,
            reference_period_ps=reference_period_ps,
        )

    # ------------------------------------------------------------------
    # operating point
    # ------------------------------------------------------------------
    @property
    def periods_per_sample(self) -> float:
        return self._periods_per_sample

    @property
    def q_factor(self) -> float:
        """The entropy quality factor (:func:`quality_factor`)."""
        return quality_factor(self.period_jitter_ps, self.period_ps, self.reference_period_ps)

    # ------------------------------------------------------------------
    # phase trajectories
    # ------------------------------------------------------------------
    def _nominal_ramp(self, bit_count: int) -> np.ndarray:
        """``periods_per_sample * [1..bit_count]``, rebuilt only when the
        length changes.  Callers must not write into it."""
        ramp = self._ramp
        if ramp.size != bit_count:
            ramp = self._ramp = self._periods_per_sample * np.arange(1, bit_count + 1)
        return ramp

    def deterministic_phase(
        self,
        bit_count: int,
        modulation: Optional[DeterministicModulation],
        initial_phase: float,
    ) -> np.ndarray:
        """Noise-free phase at every sampling instant, in periods."""
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        nominal = initial_phase + self._nominal_ramp(bit_count)
        if modulation is None or self.supply_weight == 0.0:
            return nominal
        sample_times = self.reference_period_ps * np.arange(1, bit_count + 1)
        # Delay scaling by (1 + w m) slows the phase down by w * integral(m) / T.
        integral = modulation.integral_array(sample_times)
        return nominal - (self.supply_weight / self.period_ps) * integral

    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        initial_phase: Optional[float] = None,
        jitter_scale: float = 1.0,
    ) -> np.ndarray:
        """Generate bits; ``jitter_scale=0`` yields the attacker's replica.

        ``initial_phase`` (in periods) pins the power-up phase; ``None``
        draws it uniformly — pass an explicit value when comparing a
        noisy run against its deterministic replica.
        """
        rng = make_rng(seed)
        if initial_phase is None:
            # uniform(0.0, 1.0) is 0.0 + 1.0 * random(): the same double.
            initial_phase = rng.random()
        phase = self.deterministic_phase(bit_count, modulation, initial_phase)
        sigma = jitter_scale * self._phase_sigma
        if sigma > 0.0:
            # Same draws and the same rounding as phase + cumsum(increments),
            # without the temporaries.
            walk = rng.normal(0.0, sigma, size=bit_count)
            walk.cumsum(out=walk)
            walk += phase
            phase = walk
        # phase - floor(phase) rounds the exact fraction once, as
        # np.mod(phase, 1.0) does, so the bits are identical; it is
        # several times cheaper.
        phase -= np.floor(phase)
        return (phase < 0.5).astype(int)


def generate_rows(
    models: Sequence[PhaseWalkTrng], bit_count: int, rng: np.random.Generator
) -> np.ndarray:
    """One block of bits per model, drawn from ``rng`` in one pass.

    Row ``i`` of the ``(len(models), bit_count)`` bool matrix equals
    ``models[i].generate(bit_count, seed=rng)`` called in sequence: the
    draws per row are the same (the power-up phase, then the normals,
    since ``normal(0, s)`` is ``0.0 + s * z``) and so is the rounding,
    because the scale, the cumulative sum along a row, the add of the
    nominal phase and the fraction are the per-row operations done on
    the whole matrix.  Only nominal blocks (no modulation, full jitter)
    are made here.
    """
    if bit_count < 1:
        raise ValueError(f"bit count must be positive, got {bit_count}")
    rows = len(models)
    walk = np.empty((rows, bit_count))
    initial = np.empty((rows, 1))
    for row, model in enumerate(models):
        initial[row] = rng.random()
        if model._phase_sigma > 0.0:
            rng.standard_normal(out=walk[row])
        else:
            walk[row] = 0.0  # no jitter, no draws: the nominal phase
    walk *= np.array([[model._phase_sigma] for model in models])
    walk.cumsum(axis=1, out=walk)
    steps = np.array([[model.periods_per_sample] for model in models])
    walk += initial + steps * np.arange(1, bit_count + 1)
    walk -= np.floor(walk)
    return walk < 0.5

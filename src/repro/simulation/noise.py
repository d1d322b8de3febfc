"""Jitter and delay-modulation sources (paper Section IV).

The paper's jitter model distinguishes two contributions to every stage
propagation delay:

* **local Gaussian jitter** — independent ``N(0, sigma_g^2)`` noise added to
  each gate crossing.  This is the entropy source.  The paper measures
  ``sigma_g ~= 2 ps`` per Cyclone III LUT.
* **global deterministic jitter** — a common, environment-driven delay
  modulation (supply ripple, temperature drift, an attacker's injected
  signal).  It affects every gate in the device identically at a given
  instant, which is exactly what makes it dangerous for IROs (it
  accumulates linearly over one period, Section IV-B) and harmless for
  STRs (successive tokens see the same shift and it cancels).

:class:`NoiseSource` objects model the first contribution,
:class:`DeterministicModulation` objects the second.  Both are explicit
about their randomness: noise sources are constructed from a seed or a
``numpy.random.Generator`` so that every simulation in this library is
reproducible.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed or pass one through.

    ``None`` yields a freshly-seeded generator; an ``int`` yields a
    deterministic one; an existing generator is returned unchanged so that
    several components can share one stream when a caller wants them
    coupled.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class NoiseSource(abc.ABC):
    """Source of per-transition random delay noise."""

    @abc.abstractmethod
    def sample(self) -> float:
        """Draw one delay-noise value in picoseconds."""

    @abc.abstractmethod
    def sample_array(self, count: int) -> np.ndarray:
        """Draw ``count`` delay-noise values at once (fast path)."""

    @property
    @abc.abstractmethod
    def sigma_ps(self) -> float:
        """Standard deviation of the noise in picoseconds."""


class NoNoise(NoiseSource):
    """A noiseless source — useful for deterministic timing checks."""

    def sample(self) -> float:
        return 0.0

    def sample_array(self, count: int) -> np.ndarray:
        return np.zeros(count)

    @property
    def sigma_ps(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoNoise()"


class GaussianJitter(NoiseSource):
    """Zero-mean Gaussian delay noise ``N(0, sigma_g^2)``.

    This is the paper's model of the local jitter contributed by one LUT
    cell.  Negative samples are legitimate: they model a crossing that is
    faster than nominal.  The ring models guarantee overall causality by
    construction (the nominal delay dominates the noise scale by two
    orders of magnitude).

    Parameters
    ----------
    sigma_ps:
        Standard deviation of the per-crossing delay, in picoseconds.
        The paper's measured value for a Cyclone III LUT is ~2 ps.
    seed:
        Seed or generator for reproducible sampling.
    """

    def __init__(self, sigma_ps: float, seed: SeedLike = None) -> None:
        if sigma_ps < 0.0:
            raise ValueError(f"sigma_ps must be non-negative, got {sigma_ps}")
        self._sigma_ps = float(sigma_ps)
        self._rng = make_rng(seed)

    def sample(self) -> float:
        if self._sigma_ps == 0.0:
            return 0.0
        return float(self._rng.normal(0.0, self._sigma_ps))

    def sample_array(self, count: int) -> np.ndarray:
        if self._sigma_ps == 0.0:
            return np.zeros(count)
        return self._rng.normal(0.0, self._sigma_ps, size=count)

    @property
    def sigma_ps(self) -> float:
        return self._sigma_ps

    def __repr__(self) -> str:
        return f"GaussianJitter(sigma_ps={self._sigma_ps})"


class DeterministicModulation(abc.ABC):
    """Global deterministic delay modulation.

    A modulation maps an absolute simulation time to a *relative* delay
    factor: a stage whose nominal delay is ``D`` takes ``D * (1 +
    factor(t))`` at time ``t``.  Because it is a function of global time
    only, the same factor applies to every gate in the device — which is
    the defining property of the paper's "global deterministic jitter".
    """

    @abc.abstractmethod
    def factor(self, time_ps: float) -> float:
        """Relative delay modulation at ``time_ps`` (0.0 = nominal)."""

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`factor`; subclasses override for speed."""
        return np.array([self.factor(float(t)) for t in np.asarray(times_ps)])

    @abc.abstractmethod
    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        """Exact ``integral_0^t factor(s) ds`` at each time, in ps.

        The phase models need the accumulated delay modulation between
        samples far apart against the modulation period; a closed form
        cannot alias the way a sampled quadrature does.
        """


class ConstantModulation(DeterministicModulation):
    """A time-independent delay scale (e.g. a static voltage offset)."""

    def __init__(self, factor_value: float = 0.0) -> None:
        self._factor = float(factor_value)

    def factor(self, time_ps: float) -> float:
        return self._factor

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(times_ps).shape, self._factor)

    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        return self._factor * np.asarray(times_ps, dtype=float)

    def __repr__(self) -> str:
        return f"ConstantModulation({self._factor})"


class SinusoidalModulation(DeterministicModulation):
    """Sinusoidal delay modulation — the classic supply-ripple attack.

    ``factor(t) = amplitude * sin(2*pi*t/period + phase)``
    """

    def __init__(self, amplitude: float, period_ps: float, phase_rad: float = 0.0) -> None:
        if period_ps <= 0.0:
            raise ValueError(f"period_ps must be positive, got {period_ps}")
        self.amplitude = float(amplitude)
        self.period_ps = float(period_ps)
        self.phase_rad = float(phase_rad)

    def factor(self, time_ps: float) -> float:
        # numpy's sin, not math.sin: libm and numpy round a few percent
        # of inputs differently, and the scalar path must stay
        # bit-identical to factor_array (used by the batch kernel).
        return self.amplitude * float(
            np.sin(2.0 * np.pi * time_ps / self.period_ps + self.phase_rad)
        )

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        return self.amplitude * np.sin(2.0 * np.pi * times / self.period_ps + self.phase_rad)

    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        angle = 2.0 * np.pi * times / self.period_ps + self.phase_rad
        scale = self.amplitude * self.period_ps / (2.0 * np.pi)
        return scale * (np.cos(self.phase_rad) - np.cos(angle))

    def __repr__(self) -> str:
        return (
            f"SinusoidalModulation(amplitude={self.amplitude}, "
            f"period_ps={self.period_ps}, phase_rad={self.phase_rad})"
        )


class StepModulation(DeterministicModulation):
    """A delay step at a given instant (abrupt supply/temperature change)."""

    def __init__(self, step_time_ps: float, factor_after: float, factor_before: float = 0.0) -> None:
        self.step_time_ps = float(step_time_ps)
        self.factor_before = float(factor_before)
        self.factor_after = float(factor_after)

    def factor(self, time_ps: float) -> float:
        return self.factor_after if time_ps >= self.step_time_ps else self.factor_before

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        return np.where(times >= self.step_time_ps, self.factor_after, self.factor_before)

    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        jump = self.factor_after - self.factor_before
        after = np.clip(times - self.step_time_ps, 0.0, None) - max(0.0, -self.step_time_ps)
        return self.factor_before * times + jump * after

    def __repr__(self) -> str:
        return (
            f"StepModulation(step_time_ps={self.step_time_ps}, "
            f"factor_after={self.factor_after}, factor_before={self.factor_before})"
        )


class RampModulation(DeterministicModulation):
    """A linear delay drift, e.g. slow die heating after power-up."""

    def __init__(self, slope_per_ps: float, start_time_ps: float = 0.0) -> None:
        self.slope_per_ps = float(slope_per_ps)
        self.start_time_ps = float(start_time_ps)

    def factor(self, time_ps: float) -> float:
        elapsed = max(0.0, time_ps - self.start_time_ps)
        return self.slope_per_ps * elapsed

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        return self.slope_per_ps * np.clip(times - self.start_time_ps, 0.0, None)

    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        elapsed = np.clip(times - self.start_time_ps, 0.0, None)
        before_zero = max(0.0, -self.start_time_ps)
        return 0.5 * self.slope_per_ps * (elapsed**2 - before_zero**2)

    def __repr__(self) -> str:
        return f"RampModulation(slope_per_ps={self.slope_per_ps}, start_time_ps={self.start_time_ps})"


class CompositeModulation(DeterministicModulation):
    """Sum of several modulations (ripple on top of a drift, etc.)."""

    def __init__(self, components: Sequence[DeterministicModulation]) -> None:
        self._components = list(components)

    def factor(self, time_ps: float) -> float:
        return sum(component.factor(time_ps) for component in self._components)

    def factor_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        total = np.zeros(times.shape)
        for component in self._components:
            total = total + component.factor_array(times)
        return total

    def integral_array(self, times_ps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_ps, dtype=float)
        total = np.zeros(times.shape)
        for component in self._components:
            total = total + component.integral_array(times)
        return total

    @property
    def components(self) -> Sequence[DeterministicModulation]:
        return tuple(self._components)

    def __repr__(self) -> str:
        return f"CompositeModulation({self._components!r})"

"""A virtual wide-band sampling oscilloscope.

Models the two error sources the paper identifies in direct jitter
measurements (Section V-D2):

* **sample-clock quantization** — a real-time scope time-stamps an edge
  on its sampling grid (with interpolation, a fraction of the sample
  period).  This error is bounded and *does not grow* with the measured
  interval;
* **trigger/front-end noise** — additive Gaussian noise per time stamp.

Both are negligible when measuring a 40 ns accumulated interval but
swamp a 2-3 ps period jitter — which is precisely why the paper measures
jitter through the divider method instead of reading sigma_period off
the scope directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.simulation.noise import SeedLike, make_rng
from repro.simulation.waveform import EdgeTrace


@dataclasses.dataclass(frozen=True)
class OscilloscopeSpec:
    """Acquisition characteristics of the scope.

    The defaults follow the LeCroy WavePro 735 Zi class of instrument:
    40 GS/s sampling (25 ps raw grid) with sinx/x interpolation giving an
    effective edge-placement grid of a few picoseconds, plus ~2 ps rms
    trigger noise.
    """

    sample_period_ps: float = 25.0
    interpolation_factor: int = 4
    trigger_noise_ps: float = 2.0
    memory_edges: int = 2_000_000

    def __post_init__(self) -> None:
        if self.sample_period_ps <= 0.0:
            raise ValueError(f"sample period must be positive, got {self.sample_period_ps}")
        if self.interpolation_factor < 1:
            raise ValueError(f"interpolation factor must be >= 1, got {self.interpolation_factor}")
        if self.trigger_noise_ps < 0.0:
            raise ValueError(f"trigger noise must be non-negative, got {self.trigger_noise_ps}")
        if self.memory_edges < 2:
            raise ValueError(f"memory must hold at least 2 edges, got {self.memory_edges}")

    @property
    def effective_grid_ps(self) -> float:
        """Edge-placement grid after interpolation."""
        return self.sample_period_ps / self.interpolation_factor

    @property
    def timestamp_noise_ps(self) -> float:
        """RMS single-edge time-stamp error (quantization + trigger)."""
        quantization_rms = self.effective_grid_ps / np.sqrt(12.0)
        return float(np.hypot(quantization_rms, self.trigger_noise_ps))

    @classmethod
    def ideal(cls) -> "OscilloscopeSpec":
        """An error-free instrument (for validating the pipeline)."""
        return cls(
            sample_period_ps=1e-6,
            interpolation_factor=1,
            trigger_noise_ps=0.0,
        )


class Oscilloscope:
    """Acquires edge traces through the scope front end (grid and trigger noise)."""

    def __init__(self, spec: OscilloscopeSpec = OscilloscopeSpec(), seed: SeedLike = None) -> None:
        self._spec = spec
        self._rng = make_rng(seed)

    @property
    def spec(self) -> OscilloscopeSpec:
        return self._spec

    def acquire(self, trace: EdgeTrace) -> EdgeTrace:
        """Time-stamp a physical edge trace through the scope front end.

        Each edge instant receives Gaussian trigger noise and is snapped
        to the interpolated sampling grid.  Raises if the signal is too
        fast for the grid (two edges collapsing onto one time stamp).
        """
        if len(trace) > self._spec.memory_edges:
            raise ValueError(
                f"trace of {len(trace)} edges exceeds scope memory "
                f"({self._spec.memory_edges} edges)"
            )
        times = np.asarray(trace.times_ps, dtype=float)
        if self._spec.trigger_noise_ps > 0.0 and times.size > 0:
            times = times + self._rng.normal(0.0, self._spec.trigger_noise_ps, size=times.size)
        grid = self._spec.effective_grid_ps
        times = np.round(times / grid) * grid
        times = np.sort(times)
        if times.size >= 2 and np.any(np.diff(times) <= 0.0):
            raise ValueError(
                "signal too fast for the scope: consecutive edges collapsed "
                f"onto the {grid} ps acquisition grid"
            )
        return EdgeTrace(times, first_value=trace.first_value)

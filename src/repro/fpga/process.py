"""Manufacturing process variability (paper Section V-C).

The paper quantifies *extra-device* variability: the same bitstream sent
to five boards yields slightly different ring frequencies (Table II).  Two
statistical layers reproduce that structure:

* a **global** per-device speed factor — all delays in one device share
  it (die-to-die / wafer-to-wafer variation), so it never averages out no
  matter how long the ring is;
* a **local** per-LUT mismatch factor — independent across LUT cells, so
  a frequency that averages ``L`` stage delays sees its contribution
  shrink like ``1/sqrt(L)``.

Both are modelled as multiplicative Gaussian factors around 1.0.  The
paper's Table II is consistent with a global sigma of ~0.15 % and a local
sigma of ~1.35 % (see ``repro.fpga.calibration``): the 3-stage IRO at
0.79 % is local-dominated, the 96-stage STR at 0.15 % is global-limited.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.simulation.noise import SeedLike, make_rng


@dataclasses.dataclass(frozen=True)
class DeviceVariation:
    """Sampled process factors of one manufactured device.

    ``global_factor`` multiplies every delay in the device;
    ``lut_factors[i]`` additionally multiplies the delay of LUT ``i``.
    Factors are dimensionless, centred on 1.0.
    """

    global_factor: float
    lut_factors: np.ndarray

    def __post_init__(self) -> None:
        if self.global_factor <= 0.0:
            raise ValueError(f"global factor must be positive, got {self.global_factor}")
        factors = np.asarray(self.lut_factors, dtype=float)
        if factors.ndim != 1:
            raise ValueError("lut_factors must be one-dimensional")
        if np.any(factors <= 0.0):
            raise ValueError("all LUT factors must be positive")

    @property
    def lut_count(self) -> int:
        return int(np.asarray(self.lut_factors).size)

    def stage_factor(self, lut_index: int) -> float:
        """Combined multiplicative factor for one LUT's delay."""
        return float(self.global_factor * self.lut_factors[lut_index])

    def stage_factors(self) -> np.ndarray:
        """Combined factors for all LUTs at once."""
        return self.global_factor * np.asarray(self.lut_factors, dtype=float)

    @classmethod
    def nominal(cls, lut_count: int) -> "DeviceVariation":
        """A process-free device (all factors exactly 1)."""
        return cls(global_factor=1.0, lut_factors=np.ones(lut_count))


@dataclasses.dataclass(frozen=True)
class DeviceVariationBatch:
    """A manufactured *population*: the stacked factors of ``n`` devices.

    Row ``i`` holds the factors of device ``i``: ``global_factors[i]``
    multiplies every delay in that device and ``lut_factors[i, j]``
    additionally multiplies the delay of its LUT ``j``.  The stacked
    layout is what the PUF enrollment kernel consumes — one fancy-index
    per population instead of one Python loop per device.
    """

    global_factors: np.ndarray
    lut_factors: np.ndarray

    def __post_init__(self) -> None:
        globals_ = np.asarray(self.global_factors, dtype=float)
        luts = np.asarray(self.lut_factors, dtype=float)
        if globals_.ndim != 1:
            raise ValueError("global_factors must be one-dimensional (device,)")
        if luts.ndim != 2:
            raise ValueError("lut_factors must be two-dimensional (device, lut)")
        if luts.shape[0] != globals_.shape[0]:
            raise ValueError(
                f"factor arrays disagree on the device count: "
                f"{globals_.shape[0]} global rows vs {luts.shape[0]} LUT rows"
            )
        if globals_.size and (np.any(globals_ <= 0.0) or np.any(luts <= 0.0)):
            raise ValueError("all process factors must be positive")

    def __len__(self) -> int:
        return int(np.asarray(self.global_factors).shape[0])

    @property
    def device_count(self) -> int:
        return len(self)

    @property
    def lut_count(self) -> int:
        return int(np.asarray(self.lut_factors).shape[1])

    def device(self, index: int) -> DeviceVariation:
        """The single-device view of row ``index``."""
        return DeviceVariation(
            global_factor=float(np.asarray(self.global_factors)[index]),
            lut_factors=np.asarray(self.lut_factors, dtype=float)[index],
        )

    def stage_factors(self) -> np.ndarray:
        """Combined ``(device, lut)`` multiplicative factors."""
        return np.asarray(self.global_factors, dtype=float)[:, None] * np.asarray(
            self.lut_factors, dtype=float
        )


@dataclasses.dataclass(frozen=True)
class ProcessVariation:
    """Statistical model of the manufacturing spread of a device family.

    Parameters
    ----------
    global_sigma_rel:
        Relative standard deviation of the per-device speed factor.
    local_sigma_rel:
        Relative standard deviation of the per-LUT mismatch factor.
    """

    global_sigma_rel: float
    local_sigma_rel: float

    def __post_init__(self) -> None:
        if self.global_sigma_rel < 0.0:
            raise ValueError(f"global sigma must be non-negative, got {self.global_sigma_rel}")
        if self.local_sigma_rel < 0.0:
            raise ValueError(f"local sigma must be non-negative, got {self.local_sigma_rel}")

    def sample_device(self, lut_count: int, seed: SeedLike = None) -> DeviceVariation:
        """Manufacture one device: draw its global and per-LUT factors.

        Factors are clipped at 3 sigma away from 1.0 toward zero so that
        a pathological draw can never produce a non-positive delay.
        """
        if lut_count < 1:
            raise ValueError(f"lut_count must be positive, got {lut_count}")
        rng = make_rng(seed)
        global_factor = _positive_normal(rng, self.global_sigma_rel, size=None)
        lut_factors = _positive_normal(rng, self.local_sigma_rel, size=lut_count)
        return DeviceVariation(global_factor=float(global_factor), lut_factors=np.atleast_1d(lut_factors))

    def sample_device_batch(
        self, lut_count: int, count: int, seed: SeedLike = None
    ) -> DeviceVariationBatch:
        """Manufacture ``count`` devices from per-device spawned streams.

        Device ``i`` draws from child seed ``i`` of
        :func:`repro.parallel.seeds.spawn_seeds` with exactly the draw
        order of :meth:`sample_device`, so the batch is **bit-identical**
        to a loop of ``sample_device`` calls over the same child seeds.
        That identity is what makes chunked/parallel PUF enrollment
        independent of chunk boundaries and job counts: any contiguous
        slice of the population can be manufactured in any process and
        still yield the same factors.  A ``None`` root draws one fresh
        OS-entropy root for the whole batch.
        """
        from repro.parallel.seeds import child_seeds, root_entropy

        if count < 0:
            raise ValueError(f"device count must be non-negative, got {count}")
        return self.sample_devices(
            lut_count, child_seeds(root_entropy(seed), np.arange(count))
        )

    def sample_devices(self, lut_count: int, seeds) -> DeviceVariationBatch:
        """Manufacture one device per integer seed, stacked into a batch.

        Row ``i`` is ``sample_device(lut_count, seeds[i])`` bit for bit.
        Each device's normals — the global one first, then one per LUT,
        skipping a layer whose sigma is zero as :meth:`sample_device`
        does — come from :func:`repro.parallel.seeds.standard_normal_rows`
        in one ``(device, draw)`` matrix; ``N(1, sigma^2)`` is then
        ``1.0 + sigma * z``, as NumPy's ``normal`` computes it, clipped
        once per layer.
        """
        from repro.parallel.seeds import standard_normal_rows

        if lut_count < 1:
            raise ValueError(f"lut_count must be positive, got {lut_count}")
        count = len(seeds)
        draws_global = int(self.global_sigma_rel > 0.0)
        draws_local = lut_count if self.local_sigma_rel > 0.0 else 0
        normals = standard_normal_rows(seeds, draws_global + draws_local)
        if draws_global:
            global_factors = _positive_factors(normals[:, 0], self.global_sigma_rel)
        else:
            global_factors = np.ones(count)
        if draws_local:
            lut_factors = _positive_factors(normals[:, draws_global:], self.local_sigma_rel)
        else:
            lut_factors = np.ones((count, lut_count))
        return DeviceVariationBatch(global_factors=global_factors, lut_factors=lut_factors)

    @classmethod
    def none(cls) -> "ProcessVariation":
        """A perfect process (useful for deterministic timing tests)."""
        return cls(global_sigma_rel=0.0, local_sigma_rel=0.0)


def _positive_normal(rng: np.random.Generator, sigma: float, size: Optional[int]):
    """Draw N(1, sigma^2) clipped to stay strictly positive."""
    if sigma == 0.0:
        return 1.0 if size is None else np.ones(size)
    draw = rng.normal(1.0, sigma, size=size)
    floor = max(1.0 - 3.0 * sigma, 1e-3)
    return np.clip(draw, floor, None)


def _positive_factors(normals: np.ndarray, sigma: float) -> np.ndarray:
    """:func:`_positive_normal` of each standard normal draw in ``normals``."""
    factors = 1.0 + sigma * normals
    return np.maximum(factors, max(1.0 - 3.0 * sigma, 1e-3), out=factors)

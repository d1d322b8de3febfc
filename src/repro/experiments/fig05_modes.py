"""FIG5 — burst vs evenly-spaced propagation modes (paper Fig. 5).

Fig. 5 contrasts the two steady regimes of an STR.  The reproduction
starts the *same* ring structure from a maximally clustered token
configuration under two analog hypotheses:

* strong Charlie effect (the FPGA situation) — the cluster disperses and
  the ring locks into the evenly-spaced mode;
* negligible Charlie effect with a strong drafting effect (the ASIC
  burst-prone situation of [3]) — the cluster survives and the ring
  oscillates in bursts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect
from repro.experiments.base import ExperimentResult
from repro.rings.modes import OscillationMode, classify_trace
from repro.rings.base import simulate_many
from repro.rings.str_ring import SelfTimedRing
from repro.rings.tokens import cluster_tokens


def _ring(
    stage_count: int,
    token_count: int,
    charlie_ps: float,
    drafting: DraftingEffect,
    static_delay_ps: float,
) -> SelfTimedRing:
    diagram = CharlieDiagram(
        CharlieParameters.symmetric(static_delay_ps, charlie_ps), drafting=drafting
    )
    return SelfTimedRing(
        [diagram] * stage_count,
        token_count,
        jitter_sigmas_ps=0.5,
        initial_state=cluster_tokens(stage_count, token_count),
        name=f"STR {stage_count}C",
    )


def run(
    stage_count: int = 12,
    token_count: int = 4,
    periods: int = 256,
    seed: int = 2,
) -> ExperimentResult:
    """Reproduce the two oscillation modes from a clustered start."""
    static_delay = 250.0
    rings = [
        _ring(stage_count, token_count, 120.0, DraftingEffect(), static_delay),
        _ring(
            stage_count,
            token_count,
            2.0,
            DraftingEffect(amplitude_ps=120.0, time_constant_ps=400.0),
            static_delay,
        ),
    ]
    charlie_case, drafting_case = (
        classify_trace(result.trace)
        for result in simulate_many(rings, periods, [seed, seed], warmup_periods=64)
    )
    rows: List[Tuple] = [
        (
            "strong Charlie (FPGA)",
            charlie_case.mode.value,
            charlie_case.coefficient_of_variation,
            charlie_case.gap_ratio,
        ),
        (
            "drafting-dominated (ASIC)",
            drafting_case.mode.value,
            drafting_case.coefficient_of_variation,
            drafting_case.gap_ratio,
        ),
    ]
    return ExperimentResult(
        experiment_id="FIG5",
        title="Burst and evenly-spaced propagation modes (Fig. 5)",
        columns=("analog hypothesis", "steady mode", "interval CV", "gap ratio"),
        rows=rows,
        paper_reference={
            "evenly_spaced": "tokens spread with constant spacing",
            "burst": "tokens cluster and travel as a group",
        },
        checks={
            "charlie_locks_evenly_spaced": charlie_case.mode is OscillationMode.EVENLY_SPACED,
            "drafting_produces_burst": drafting_case.mode is OscillationMode.BURST,
        },
        notes=(
            "Both runs start from the same maximally clustered token "
            "configuration; only the analog stage model differs."
        ),
    )

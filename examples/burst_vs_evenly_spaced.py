#!/usr/bin/env python
"""Explore the STR's two oscillation modes (paper Figs. 4 and 5).

Starts the same 12-stage ring from a maximally clustered token
configuration under two analog hypotheses and shows what the output stage
sees: evenly spaced toggles when the Charlie effect dominates, volleys
separated by long silences when the drafting effect dominates.  Also
prints the logical token walk of Fig. 4.
"""

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect
from repro.rings.modes import classify_trace
from repro.rings.str_ring import SelfTimedRing
from repro.rings.tokens import (
    cluster_tokens,
    fire_stage,
    fireable_stages,
    spread_tokens_evenly,
    token_positions,
)

STAGES = 12
TOKENS = 4


def show_token_walk() -> None:
    print("=== Fig. 4: the logical token walk (L = 5, NT = 2) ===")
    state = spread_tokens_evenly(5, 2)
    print(f"start:        state = {''.join(map(str, state))}  tokens at {token_positions(state)}")
    for step in range(6):
        stage = fireable_stages(state)[0]
        state = fire_stage(state, stage)
        print(
            f"fire stage {stage}: state = {''.join(map(str, state))}  "
            f"tokens at {token_positions(state)}"
        )
    print()


def run_mode(label: str, charlie_ps: float, drafting: DraftingEffect) -> None:
    diagram = CharlieDiagram(
        CharlieParameters.symmetric(250.0, charlie_ps), drafting=drafting
    )
    ring = SelfTimedRing(
        [diagram] * STAGES,
        TOKENS,
        jitter_sigmas_ps=0.5,
        initial_state=cluster_tokens(STAGES, TOKENS),
        name=label,
    )
    result = ring.simulate(256, seed=7, warmup_periods=64)
    classification = classify_trace(result.trace)
    # Fold the interval sequence modulo the token count: an evenly-spaced
    # ring gives a flat profile, a burst ring a strongly peaked one.
    intervals = result.trace.half_periods_ps()
    usable = (intervals.size // TOKENS) * TOKENS
    profile = intervals[:usable].reshape(-1, TOKENS).mean(axis=0)
    profile = profile / profile.mean()
    print(f"--- {label} ---")
    print(
        f"mode = {classification.mode.value}, interval CV = "
        f"{classification.coefficient_of_variation:.3f}, gap ratio = "
        f"{classification.gap_ratio:.2f}"
    )
    print("mean interval per within-revolution slot (normalized):")
    peak = max(profile)
    for slot, value in enumerate(profile):
        bar = "#" * int(round(40 * value / peak))
        print(f"  slot {slot}: {value:5.2f} {bar}")
    print()


def main() -> None:
    show_token_walk()
    print(f"=== Fig. 5: steady regimes of an L={STAGES}, NT={TOKENS} ring ===")
    print("(both runs start from the same clustered token configuration)\n")
    run_mode(
        "strong Charlie effect (FPGA)",
        charlie_ps=120.0,
        drafting=DraftingEffect(),
    )
    run_mode(
        "drafting-dominated (burst-prone ASIC)",
        charlie_ps=2.0,
        drafting=DraftingEffect(amplitude_ps=120.0, time_constant_ps=400.0),
    )


if __name__ == "__main__":
    main()

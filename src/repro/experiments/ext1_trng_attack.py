"""EXT1 — deterministic jitter under a supply-ripple attack (extension).

The paper's security conclusion ("STR-based TRNGs should be more robust
to attacks than IRO-based TRNGs") rests on the Section IV argument that
the STR's delay responds less to global deterministic disturbances.
This extension quantifies that mechanism end to end:

1. inject sinusoidal supply ripple of increasing amplitude into the
   ~300 MHz IRO 5C / STR 96C pair of Fig. 9, through the ring
   simulator (STR on the batch wave kernel, IRO on its event-engine
   fallback);
2. separate the deterministic period modulation from the Gaussian jitter
   in quadrature (same noise seed with and without the attack);
3. report the *relative deterministic response* (period modulation per
   unit injected amplitude) and the entropy-accounting hazard — the
   factor by which a designer reading the attacked jitter figure would
   overestimate the TRNG quality factor (the masquerade warning of the
   paper's reference [2]).

Expected outcome: the IRO's response tracks its full supply weight
(~0.97 / sqrt 2), the STR's is ~25 % lower because its Charlie-penalty
delay share barely follows the supply (the same confinement effect that
produces Table I), and only the random part of either figure delivers
entropy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.trng.attacks import SupplyAttack, measure_deterministic_response
from repro.trng.phasewalk import PhaseWalkTrng, reference_period_for_q

#: Relative delay-modulation amplitudes swept by the attacker.
DEFAULT_AMPLITUDES: Tuple[float, ...] = (0.002, 0.008)


def run(
    board: Optional[Board] = None,
    amplitudes: Sequence[float] = DEFAULT_AMPLITUDES,
    ripple_period_ps: float = 1.0e5,
    period_count: int = 2048,
    q_target: float = 0.2,
    seed: int = 31,
) -> ExperimentResult:
    """Measure the deterministic response of both rings to supply ripple."""
    board = board if board is not None else Board()
    rings = (
        InverterRingOscillator.on_board(board, 5),
        SelfTimedRing.on_board(board, 96),
    )
    rows: List[Tuple] = []
    responses = {ring.name: [] for ring in rings}
    clean_pass = True
    for ring in rings:
        # Provision the elementary TRNG from the *clean* jitter figure.
        model = PhaseWalkTrng.from_ring(
            ring,
            reference_period_for_q(
                ring.predicted_period_ps(), ring.predicted_period_jitter_ps(), q_target
            ),
        )
        from repro.stats.randomness import run_battery

        clean_bits = model.generate(16384, seed=seed)
        clean_pass = clean_pass and run_battery(clean_bits).all_passed
        for amplitude in amplitudes:
            attack = SupplyAttack(
                delay_amplitude=float(amplitude), period_ps=ripple_period_ps
            )
            response = measure_deterministic_response(
                ring, attack, period_count=period_count, seed=seed
            )
            responses[ring.name].append(response)
            rows.append(
                (
                    ring.name,
                    amplitude,
                    response.clean_sigma_ps,
                    response.attacked_sigma_ps,
                    response.deterministic_sigma_ps,
                    response.relative_response,
                    response.apparent_q_inflation,
                )
            )

    iro_responses = [r.relative_response for r in responses["IRO 5C"]]
    str_responses = [r.relative_response for r in responses["STR 96C"]]
    iro_weight = rings[0].mean_supply_weight
    str_weight = rings[1].mean_supply_weight
    sqrt2 = math.sqrt(2.0)
    return ExperimentResult(
        experiment_id="EXT1",
        title="Deterministic jitter under supply-ripple attack (extension)",
        columns=(
            "ring",
            "ripple amplitude",
            "sigma clean [ps]",
            "sigma attacked [ps]",
            "sigma det [ps]",
            "relative response",
            "apparent Q inflation",
        ),
        rows=rows,
        paper_reference={
            "section_iv": "global deterministic jitter accumulates in IROs, "
            "is attenuated in STRs",
            "conclusion": "STRs exhibit a lower deterministic jitter",
        },
        checks={
            "clean_trngs_pass_battery": clean_pass,
            "ripple_inflates_apparent_jitter": all(
                r.attacked_sigma_ps > r.clean_sigma_ps
                for rs in responses.values()
                for r in rs
            )
            and all(
                rs[-1].attacked_sigma_ps > 2.0 * rs[-1].clean_sigma_ps
                for rs in responses.values()
            ),
            "str_response_lower_than_iro": all(
                s < i for s, i in zip(str_responses, iro_responses)
            ),
            "responses_match_supply_weights": all(
                abs(r.relative_response - weight / sqrt2) < 0.15 * weight
                for rs, weight in (
                    (responses["IRO 5C"], iro_weight),
                    (responses["STR 96C"], str_weight),
                )
                for r in rs
            ),
            "deterministic_jitter_carries_no_entropy": all(
                r.apparent_q_inflation > 2.0
                for r in responses["IRO 5C"] + responses["STR 96C"]
                if r.attack.delay_amplitude >= 0.008
            ),
        },
        notes=(
            f"Supply weights: IRO 5C = {iro_weight:.2f}, STR 96C = "
            f"{str_weight:.2f}; the measured relative responses should sit "
            "near weight/sqrt(2) for a sinusoidal ripple.  'Apparent Q "
            "inflation' is how far a designer trusting the attacked sigma "
            "would overestimate the entropy budget."
        ),
    )

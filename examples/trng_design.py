#!/usr/bin/env python
"""Design an STR-based TRNG the way the paper's measurements enable.

The workflow a designer follows once the entropy source is characterized:

1. measure the period jitter of the source through the on-chip divider
   method (Fig. 10 / Eq. 6) — the only measurement a real lab can trust
   at the picosecond scale;
2. provision the sampling (reference) clock so the accumulated jitter
   reaches a target quality factor Q;
3. generate bits, check them with the randomness battery and a
   min-entropy assessment.

The same flow runs for the IRO for contrast: the STR reaches a given Q
with a *length-independent* jitter budget, which is the paper's point —
you can size the STR for robustness (long ring) without re-provisioning
the sampler.
"""

from repro import Board, InverterRingOscillator, SelfTimedRing
from repro.core.characterization import measure_period_jitter
from repro.stats.entropy import bias, markov_entropy_per_bit
from repro.stats.randomness import run_battery
from repro.trng.assessment import assess_min_entropy
from repro.trng.phasewalk import PhaseWalkTrng, reference_period_for_q

TARGET_Q = 0.2
BITS = 30_000


def design_and_run(ring, seed: int) -> None:
    print(f"--- {ring.name} ---")
    # Step 1: characterize the source (divider method, like the paper).
    reading = measure_period_jitter(ring, method="divider", period_count=8192, seed=seed)
    sigma = reading.sigma_period_ps
    period = reading.mean_period_ps
    print(
        f"measured: T = {period:.1f} ps, sigma_p = {sigma:.2f} ps "
        f"(divider method, hypothesis ok: "
        f"{reading.divider_reading.hypothesis_ok})"
    )

    # Step 2: provision the reference clock for the target Q.
    reference = reference_period_for_q(period, sigma, TARGET_Q)
    model = PhaseWalkTrng(period, sigma, 1.0, reference)
    print(
        f"provisioned: T_ref = {reference / 1e6:.2f} us "
        f"(throughput {1e12 / reference / 1e3:.1f} kbit/s), "
        f"Q = {model.q_factor:.3f}"
    )

    # Step 3: generate and test.
    bits = model.generate(BITS, seed=seed)
    battery = run_battery(bits)
    print(
        f"raw bits: bias = {bias(bits):+.4f}, "
        f"Markov entropy = {markov_entropy_per_bit(bits):.4f}, "
        f"battery: {'PASS' if battery.all_passed else 'FAIL ' + str(battery.failed_tests)}"
    )

    # Step 3b: a certification-style min-entropy assessment.
    assessment = assess_min_entropy(bits)
    print(
        f"90B-style min-entropy: {assessment.min_entropy:.3f} bit/bit "
        f"(limited by {assessment.limiting_estimator})"
    )
    print()


def main() -> None:
    board = Board()
    design_and_run(SelfTimedRing.on_board(board, 96), seed=11)
    design_and_run(InverterRingOscillator.on_board(board, 5), seed=12)

    print("Note how the STR's jitter figure is per *stage*, not per ring:")
    for stages in (16, 48, 96):
        ring = SelfTimedRing.on_board(board, stages)
        print(
            f"  STR {stages:3d}C: predicted sigma_p = "
            f"{ring.predicted_period_jitter_ps():.2f} ps (unchanged), "
            f"F = {ring.predicted_frequency_mhz():.0f} MHz"
        )


if __name__ == "__main__":
    main()

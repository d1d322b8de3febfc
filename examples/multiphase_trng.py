#!/usr/bin/env python
"""The multi-phase STR TRNG — where the paper's conclusions lead.

The paper ends by announcing a TRNG that "exploits the STR properties";
this example walks that design:

1. pick a gcd(L, NT) = 1 ring so every stage contributes a distinct
   phase (L = 63, NT = 20), and *see* the uniform phase comb;
2. measure the ring's long-run phase diffusion — the quantity that
   actually accumulates between samples (STR periods are anticorrelated,
   so this is below the single-period sigma);
3. provision an elementary and a multi-phase sampler for the same
   entropy target and compare throughput (the L^2 factor);
4. generate bits and run the statistical battery and the online health
   tests.
"""

import numpy as np

from repro import Board, SelfTimedRing
from repro.stats.entropy import bias, markov_entropy_per_bit
from repro.stats.randomness import run_battery
from repro.trng.health import HealthMonitor
from repro.trng.multiphase import (
    MultiphaseModel,
    measure_diffusion_sigma_ps,
    reference_period_for_multiphase_q,
)
from repro.trng.phasewalk import reference_period_for_q

STAGES = 63
TOKENS = 20  # gcd(63, 20) = 1: all 63 phases distinct
Q_TARGET = 0.25


def main() -> None:
    board = Board()
    ring = SelfTimedRing.on_board(board, STAGES, token_count=TOKENS)
    period = ring.predicted_period_ps()

    print(f"ring: {ring.name}, NT = {TOKENS}, T = {period:.0f} ps "
          f"({ring.predicted_frequency_mhz():.0f} MHz)")

    # 1. the phase comb.
    quiet = SelfTimedRing([ring.mean_diagram()] * STAGES, TOKENS, jitter_sigmas_ps=0.0)
    phases = quiet.simulate_phases(16, seed=0, warmup_periods=2048)
    spacings = phases.merged_spacings_ps()
    print(
        f"phase comb: {STAGES} phases, spacing {np.mean(spacings):.2f} ps "
        f"(T/2L = {period / (2 * STAGES):.2f} ps), spread {np.std(spacings):.3f} ps"
    )

    # 2. diffusion rate.
    diffusion = measure_diffusion_sigma_ps(ring, period_count=3072, seed=1)
    single = ring.simulate(2048, seed=1).trace.period_jitter_ps()
    print(
        f"jitter: single-period sigma {single:.2f} ps, long-run diffusion "
        f"{diffusion:.2f} ps/sqrt(period) (regulated below sigma_p)"
    )

    # 3. provisioning comparison.
    elementary_ref = reference_period_for_q(period, diffusion, Q_TARGET)
    multiphase_ref = reference_period_for_multiphase_q(period, STAGES, diffusion, Q_TARGET)
    print(f"elementary sampler at Q={Q_TARGET}: T_ref = {elementary_ref / 1e6:.0f} us "
          f"-> {1e12 / elementary_ref:.0f} bit/s")
    print(f"multi-phase sampler at Q={Q_TARGET}: T_ref = {multiphase_ref / 1e3:.1f} ns "
          f"-> {1e12 / multiphase_ref / 1e6:.2f} Mbit/s  (x{STAGES}^2 = "
          f"{STAGES**2} speedup)")

    # 4. bits + verdicts.
    model = MultiphaseModel(period, STAGES, diffusion, multiphase_ref)
    bits = model.generate(30_000, seed=2)
    battery = run_battery(bits)
    monitor = HealthMonitor(claimed_min_entropy=0.9)
    healthy = monitor.check_block(bits)
    print(
        f"bits: bias {bias(bits):+.4f}, Markov entropy "
        f"{markov_entropy_per_bit(bits):.4f}, battery "
        f"{'PASS' if battery.all_passed else 'FAIL ' + str(battery.failed_tests)}, "
        f"health tests {'clean' if healthy else [a.test_name for a in monitor.alarms]}"
    )

    # A jitter-free source for contrast: its output is a deterministic
    # periodic pattern.  The cheap online health tests only catch
    # stuck-at and bias failures — a *balanced* periodic pattern slips
    # through them (which is why standards also require start-up battery
    # tests); the battery catches it immediately.
    stuck = MultiphaseModel(period, STAGES, 0.0, multiphase_ref)
    stuck_bits = stuck.generate(5_000, seed=3)
    stuck_healthy = HealthMonitor(claimed_min_entropy=0.9).check_block(stuck_bits)
    stuck_battery = run_battery(stuck_bits)
    print(
        f"jitter-free source: health tests "
        f"{'clean (balanced periodic pattern!)' if stuck_healthy else 'alarm'}, "
        f"battery {'PASS' if stuck_battery.all_passed else 'FAIL: ' + str(stuck_battery.failed_tests)}"
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Coherent-sampling TRNG across a manufactured device family (ref [7]).

The paper's closing argument: STR frequency stability across devices is
what makes coherent-sampling TRNGs deployable, because the scheme only
works while the two rings' detuning stays inside a narrow band.  This
example:

1. manufactures a board family and builds STR 96C rings on each device;
2. checks every cross-device pair against the capture band (and against
   the *lower* jitter-floor bound the model surfaces);
3. runs the counter-based generator on one healthy pair, showing the
   beat signal, the counter population, and the LSB bit quality;
4. plots the counter distribution in the terminal.
"""

import itertools

import numpy as np

from repro import BoardBank, SelfTimedRing
from repro.reporting.ascii_plot import AsciiPlot
from repro.stats.entropy import bias, markov_entropy_per_bit
from repro.stats.randomness import run_battery
from repro.trng.coherent import CoherentSamplingTrng

BOARDS = 8
CAPTURE_BAND = 0.015


def main() -> None:
    bank = BoardBank.manufacture(board_count=BOARDS, seed=11)
    rings = [SelfTimedRing.on_board(board, 96) for board in bank]

    print(f"=== pair feasibility across {BOARDS} manufactured devices ===")
    healthy_pairs = []
    for (ia, ring_a), (ib, ring_b) in itertools.combinations(enumerate(rings), 2):
        trng = CoherentSamplingTrng(ring_a, ring_b, max_relative_detuning=CAPTURE_BAND)
        point = trng.design_point()
        status = []
        if not point.is_within_capture_band:
            status.append("OUT OF BAND")
        if not point.is_drift_dominated:
            status.append("below jitter floor")
        if not status:
            healthy_pairs.append((ia, ib, trng, point))
            status.append("ok")
        print(
            f"boards {ia + 1}+{ib + 1}: detuning {point.relative_detuning:7.3%}, "
            f"expected count {point.expected_count:7.1f}, "
            f"drift/diffusion {point.drift_to_diffusion_ratio:5.1f}  "
            f"[{', '.join(status)}]"
        )
    print(f"{len(healthy_pairs)} healthy pairs\n")

    if not healthy_pairs:
        raise SystemExit("no healthy pair in this family draw; try another seed")

    # Pick the pair with the largest expected count still drift-dominated.
    ia, ib, trng, point = max(healthy_pairs, key=lambda item: item[3].expected_count)
    print(f"=== running the generator on boards {ia + 1}+{ib + 1} ===")
    print(
        f"T_a = {point.period_a_ps:.1f} ps, T_b = {point.period_b_ps:.1f} ps, "
        f"beat = {point.beat_period_ps / 1e3:.1f} ns"
    )

    counts = trng.counter_values(60_000, seed=3)
    print(
        f"counter: mean {np.mean(counts):.1f} (expected "
        f"{point.expected_count:.1f}), sigma {np.std(counts):.1f} counts "
        f"(predicted >= {point.predicted_count_sigma:.1f})"
    )

    histogram, edges = np.histogram(counts, bins=24)
    centers = 0.5 * (edges[:-1] + edges[1:])
    print()
    plot = AsciiPlot(
        width=56,
        height=12,
        title="coherent-sampling counter distribution",
        x_label="counter value",
        y_label="occurrences",
    )
    plot.add_series("count histogram", centers, histogram)
    print(plot.render())
    print()

    bits = trng.generate(2000, seed=5)
    battery = run_battery(bits)
    print(
        f"LSB bits: bias {bias(bits):+.4f}, Markov entropy "
        f"{markov_entropy_per_bit(bits):.4f}, battery "
        f"{'PASS' if battery.all_passed else 'FAIL: ' + str(battery.failed_tests)}"
    )
    print()
    print(
        "An IRO family at the same frequency would scatter its pairs far\n"
        "outside the capture band (see EXT2/EXT7) — the paper's Table II\n"
        "argument, exercised end to end."
    )


if __name__ == "__main__":
    main()

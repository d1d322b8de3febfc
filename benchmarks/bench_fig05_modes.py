"""FIG5 — Burst vs evenly-spaced modes (Fig. 5).

Regenerates the paper item through the experiment module and prints the
reproduced rows next to the published reference values.
"""

from conftest import run_reproduction


def bench_fig05(benchmark):
    run_reproduction(benchmark, "FIG5", rounds=5, warmup_rounds=1)

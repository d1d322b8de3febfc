"""ABL4 — Drafting amplitude vs the burst boundary (ablation).

Maps the evenly-spaced/burst boundary that justifies the paper's
decision to neglect the drafting effect in FPGAs.
"""

from conftest import run_reproduction


def bench_abl4(benchmark):
    run_reproduction(benchmark, "ABL4", rounds=5, warmup_rounds=1)

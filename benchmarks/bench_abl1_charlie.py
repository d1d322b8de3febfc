"""ABL1 — Ablation: Charlie magnitude vs locking and jitter.

Regenerates the ablation through the experiment module and prints the
rows with the structural verdicts.
"""

from conftest import run_reproduction


def bench_abl1(benchmark):
    run_reproduction(benchmark, "ABL1", rounds=3, warmup_rounds=1)

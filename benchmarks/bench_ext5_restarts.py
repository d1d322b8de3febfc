"""EXT5 — Restart experiments (extension; entropy-assessment methodology).

Regenerates the restart campaign and prints the across-restart spread
growth next to the Eq. 4 prediction.
"""

from conftest import run_reproduction


def bench_ext5(benchmark):
    run_reproduction(benchmark, "EXT5", rounds=3, warmup_rounds=1)

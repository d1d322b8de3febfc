"""SEC5A — Evenly-spaced mode locking (Section V-A).

Regenerates the paper item through the experiment module and prints the
reproduced rows next to the published reference values.
"""

from conftest import run_reproduction


def bench_sec5a(benchmark):
    run_reproduction(benchmark, "SEC5A", rounds=5, warmup_rounds=1)

"""FIG9 — Period jitter histograms (Fig. 9).

Regenerates the paper item through the experiment module and prints the
reproduced rows next to the published reference values.
"""

from conftest import run_reproduction


def bench_fig09(benchmark):
    run_reproduction(benchmark, "FIG9")

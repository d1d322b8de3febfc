"""EXT10 — fault-injection campaign over the supervised runtime (extension).

Every library fault at every swept severity against the supervised
IRO-primary / STR-backup generator: the detection-latency and
recovery-outcome coverage matrix.  It takes a fraction of a second, so
it is timed over one warm-up and five measured rounds: the gated mean is
not a single cold sample.
"""

from conftest import run_reproduction


def bench_ext10(benchmark):
    run_reproduction(benchmark, "EXT10", rounds=5, warmup_rounds=1)

"""Benchmark harness helpers.

Each benchmark regenerates one table or figure of the paper: it runs the
corresponding experiment module once by default (``rounds=1`` — these
are reproduction runs, not micro-benchmarks), prints the same rows the
paper reports side by side with the published values, and asserts the
experiment's structural checks.  A sub-second benchmark passes
``rounds``/``warmup_rounds`` so its gated mean is not one cold sample.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from repro.experiments import get_experiment
from repro.experiments.base import ExperimentResult


def run_reproduction(
    benchmark, experiment_id: str, rounds: int = 1, warmup_rounds: int = 0, **kwargs
) -> ExperimentResult:
    """Run one experiment under the benchmark timer and report it."""
    runner = get_experiment(experiment_id)
    result = benchmark.pedantic(
        runner, kwargs=kwargs, rounds=rounds, iterations=1, warmup_rounds=warmup_rounds
    )
    print()
    print(result.render())
    assert result.all_checks_pass, (
        f"{experiment_id} failed checks: {result.failed_checks}"
    )
    return result

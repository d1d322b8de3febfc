"""EXT12 — differential jitter measurement vs the counter method under ripple (extension).

The paper's counter method (Fig. 10, Eq. 6) first-differences successive
accumulation windows, which makes it blind to a *static* frequency
offset but fully exposed to supply ripple near half the re-arm rate:
successive windows then average anti-phase half-cycles of the ripple
and the recovered sigma inflates with amplitude.  This experiment runs
the alternative of :mod:`repro.measurement.differential` — two
co-located IROs on one board, sharing the device's global speed factor
and the board-level modulation, measured over simultaneously triggered
windows and subtracted — against the counter method on the *same*
window data, sweeping worst-case ripple amplitude:

* with no ripple both estimators track the analytic period jitter;
* as ripple grows the counter estimate inflates without bound while the
  differential estimate stays within a few percent — the common mode
  cancels in each simultaneous window pair.

The amplitude x repeat grid runs through :func:`repro.parallel.run_grid`
with per-point derived seeds, so the experiment shards and merges like
any campaign (``repro run EXT12 --shard I/N``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.fpga.board import BoardBank
from repro.measurement.differential import (
    ColocatedPair,
    measure_pair,
    worst_case_ripple,
)
from repro.parallel import (
    GridStats,
    GridTask,
    GridWorkload,
    ResultCache,
    run_grid,
    spawn_seeds,
)

#: Cache kind for EXT12 grid points.
TASK_KIND = "ext12_differential_point"

#: Worst-case ripple amplitudes swept (relative supply factor).
DEFAULT_AMPLITUDES: Tuple[float, ...] = (0.0, 2e-4, 7e-4)


def _build_pair(spec: Mapping[str, Any]) -> ColocatedPair:
    """The measured pair, rebuilt deterministically from a task spec."""
    bank = BoardBank.manufacture(board_count=1, seed=int(spec["bank_seed"]))
    return ColocatedPair.on_board(bank[0], int(spec["stage_count"]))


def _pair_task_worker(task: GridTask) -> Dict[str, Any]:
    """Module-level (hence picklable) worker: one reading of the pair."""
    spec = task.spec
    pair = _build_pair(spec)
    amplitude = float(spec["amplitude"])
    modulation = (
        worst_case_ripple(pair, int(spec["periods_per_window"]), amplitude)
        if amplitude > 0.0
        else None
    )
    reading = measure_pair(
        pair,
        window_count=int(spec["window_count"]),
        periods_per_window=int(spec["periods_per_window"]),
        seed=task.seed,
        modulation=modulation,
    )
    return {
        "differential_sigma_ps": reading.differential_sigma_ps,
        "counter_sigma_ps": reading.counter_sigma_a_ps,
        "differential_bias": reading.differential_bias,
        "counter_bias": reading.counter_bias,
    }


def ext12_args(
    amplitudes: Sequence[float] = DEFAULT_AMPLITUDES,
    repeats: int = 4,
    window_count: int = 256,
    periods_per_window: int = 64,
    stage_count: int = 9,
    bank_seed: int = 3,
    seed: int = 41,
) -> Dict[str, Any]:
    """The JSON-able args of an EXT12 amplitude x repeat grid."""
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    return {
        "amplitudes": [float(a) for a in amplitudes],
        "repeats": int(repeats),
        "window_count": int(window_count),
        "periods_per_window": int(periods_per_window),
        "stage_count": int(stage_count),
        "bank_seed": int(bank_seed),
        "seed": seed,
    }


def _ext12_grid(args: Dict[str, Any]):
    """The full amplitude x repeat grid, seeds derived before any split."""
    repeats = args["repeats"]
    seeds = spawn_seeds(args["seed"], len(args["amplitudes"]) * repeats)
    tasks: List[GridTask] = []
    for a_index, amplitude in enumerate(args["amplitudes"]):
        for repeat in range(repeats):
            tasks.append(
                GridTask(
                    kind=TASK_KIND,
                    spec={
                        "amplitude": amplitude,
                        "repeat": repeat,
                        "window_count": args["window_count"],
                        "periods_per_window": args["periods_per_window"],
                        "stage_count": args["stage_count"],
                        "bank_seed": args["bank_seed"],
                    },
                    seed=seeds[a_index * repeats + repeat],
                )
            )
    return tasks, _pair_task_worker


def _ext12_result(args: Dict[str, Any], raw: Sequence[Dict[str, Any]]) -> ExperimentResult:
    """Fold the grid readings into the EXT12 table and checks."""
    amplitudes = tuple(args["amplitudes"])
    repeats = args["repeats"]
    pair = _build_pair(args)
    relative_detuning = abs(
        pair.ring_a.predicted_period_ps() - pair.ring_b.predicted_period_ps()
    ) / pair.ring_a.predicted_period_ps()

    rows: List[Tuple] = []
    diff_by_amp: List[float] = []
    counter_by_amp: List[float] = []
    cursor = 0
    for amplitude in amplitudes:
        chunk = raw[cursor : cursor + repeats]
        cursor += repeats
        diff_bias = float(np.mean([point["differential_bias"] for point in chunk]))
        counter_bias = float(np.mean([point["counter_bias"] for point in chunk]))
        diff_by_amp.append(diff_bias)
        counter_by_amp.append(counter_bias)
        if abs(counter_bias) < 0.10 and abs(diff_bias) < 0.10:
            verdict = "both track"
        elif abs(diff_bias) < 0.10:
            verdict = "counter inflated, differential immune"
        else:
            verdict = "both contaminated"
        rows.append(
            (
                f"{amplitude:.1e}",
                round(float(np.mean([p["differential_sigma_ps"] for p in chunk])), 3),
                round(float(np.mean([p["counter_sigma_ps"] for p in chunk])), 3),
                f"{diff_bias:+.3f}",
                f"{counter_bias:+.3f}",
                verdict,
            )
        )

    quiet_index = amplitudes.index(0.0) if 0.0 in amplitudes else None
    ripple_indices = [i for i, a in enumerate(amplitudes) if a > 0.0]
    checks = {
        "differential_unbiased_quiet": (
            quiet_index is not None and abs(diff_by_amp[quiet_index]) < 0.10
        ),
        "counter_unbiased_quiet": (
            quiet_index is not None and abs(counter_by_amp[quiet_index]) < 0.10
        ),
        "differential_immune_to_ripple": all(
            abs(diff_by_amp[i]) < 0.10 for i in ripple_indices
        ),
        "counter_inflated_by_ripple": bool(ripple_indices)
        and counter_by_amp[max(ripple_indices, key=lambda i: amplitudes[i])] > 1.0,
        "differential_beats_counter_under_ripple": all(
            counter_by_amp[i] > diff_by_amp[i] + 0.10 for i in ripple_indices
        ),
    }

    return ExperimentResult(
        experiment_id="EXT12",
        title="Differential jitter measurement vs the counter method under ripple (extension)",
        columns=(
            "ripple amplitude",
            "differential sigma (ps)",
            "counter sigma (ps)",
            "differential bias",
            "counter bias",
            "verdict",
        ),
        rows=rows,
        paper_reference={
            "fig_10": "counter method: divide-by-2^n windows, first difference",
            "eq_6": "sigma_p = sigma_cc / sqrt(2 N)",
            "sec_4": "deterministic supply modulation as a jitter contaminant",
        },
        checks=checks,
        notes=(
            f"Co-located IRO {args['stage_count']}C pair on one board (bank seed "
            f"{args['bank_seed']}), nominal detuning {relative_detuning:.1%}; "
            f"{len(amplitudes)} ripple amplitudes x {repeats} repeats, "
            f"{args['window_count']} windows of {args['periods_per_window']} periods.  The "
            f"ripple period is two re-arm intervals — the counter method's "
            f"worst case — yet the simultaneously-triggered difference "
            f"cancels it."
        ),
    )


def run(
    amplitudes: Sequence[float] = DEFAULT_AMPLITUDES,
    repeats: int = 4,
    window_count: int = 256,
    periods_per_window: int = 64,
    stage_count: int = 9,
    bank_seed: int = 3,
    seed: int = 41,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Any] = None,
    stats: Optional[GridStats] = None,
) -> ExperimentResult:
    """Sweep worst-case ripple amplitude; compare the two estimators."""
    args = ext12_args(
        amplitudes, repeats, window_count, periods_per_window, stage_count, bank_seed, seed
    )
    tasks, worker = _ext12_grid(args)
    raw = run_grid(
        tasks, worker, jobs=jobs, cache=cache, progress=progress, stats=stats
    )
    return _ext12_result(args, raw)


#: The amplitude x repeat sweep as a shardable grid workload.
EXT12_WORKLOAD = GridWorkload("EXT12", _ext12_grid, _ext12_result)

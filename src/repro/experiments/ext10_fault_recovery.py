"""EXT10 — fault-injection campaign over the supervised runtime (extension).

The paper's robustness claims (C4/C5) promise that an STR keeps working
where an IRO degrades.  EXT1/EXT6 measured that degradation; this
campaign *exercises* it end to end: every fault in the library
(:data:`repro.faults.FAULT_KINDS`) is injected at a sweep of severities
into a supervised IRO-backed generator with an STR backup, and the
supervisor's structured event log is scored into a detection-latency /
recovery-outcome coverage matrix.

What the matrix shows, per fault kind:

* **stuck** — oscillation death is binary: detected at every severity
  (a stuck stage breaks the IRO's single event loop outright);
* **brownout** — the static sag alone barely moves Q (Fig. 8
  linearity: jitter scales with delay), so moderate severities sail
  under the health tests; at high severity the regulator's dropout
  ripple injection-locks the high-supply-weight IRO, the repetition
  test fires, and recovery *fails over to the STR backup* — whose
  Charlie-confined supply weight keeps it below the lock threshold.
  This row is claims C4/C5 operationalized;
* **ripple** — the deliberate injection-locking attack behaves like the
  brownout's dynamic component: lock (and detection) only past the
  IRO's lock boundary, and the STR shrugs it off;
* **temperature** — the ramp only upsets the oscillation when its
  plateau crosses the thermal upset threshold (full severity);
* **glitch** — sampler upsets bypass the ring, so ring robustness is
  irrelevant: detection scales with the forced-bit fraction and the
  shared-net variant can defeat failover, leaving degraded mode or a
  clean total-failure stop.

A separate no-backup oscillation-death run checks the hard guarantee:
TOTAL_FAILURE with zero bits emitted after the alarm.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.campaign import RingSpec
from repro.experiments.base import ExperimentResult
from repro.faults import FAULT_KINDS, FaultSchedule, ScheduledFault, standard_fault
from repro.fpga.board import Board
from repro.parallel.cache import ResultCache, fingerprint
from repro.parallel.executor import GridTask, run_grid
from repro.trng.supervisor import SupervisedRunResult, SupervisedTrng, TrngState

#: Recovery-outcome labels, from best to worst.
OUTCOME_ORDER: Tuple[str, ...] = (
    "no alarm",
    "retry",
    "restart",
    "failover",
    "degraded",
    "total failure",
)


def _outcome(result: SupervisedRunResult, onset_s: float) -> Tuple[str, str, int]:
    """Classify a supervised run into (outcome, latency cell, alarm count).

    The outcome is the *deepest* recovery rung the run reached (per
    :data:`OUTCOME_ORDER`), not the last event: a marginal fault can
    flicker between alarms and spurious recoveries, and the matrix
    should report how far down the ladder it pushed the supervisor.
    """
    alarms = [e for e in result.events.of_kind("alarm") if e.time_s >= onset_s]
    if not alarms:
        return "no alarm", "-", 0
    latency_ms = (alarms[0].time_s - onset_s) * 1.0e3
    depth = 0
    for event in result.events:
        if event.time_s < alarms[0].time_s:
            continue
        if event.kind == "recovered":
            label = event.detail.replace("mechanism=", "")
        elif event.kind == "failover":
            label = "failover"
        elif event.kind == "degraded_mode":
            label = "degraded"
        elif event.kind == "total_failure":
            label = "total failure"
        else:
            continue
        depth = max(depth, OUTCOME_ORDER.index(label))
    return OUTCOME_ORDER[depth], f"{latency_ms:.1f}", len(alarms)


def _cell_worker(task: GridTask) -> Dict[str, Any]:
    """Grid worker: one supervised run, reduced to its JSON-able verdict.

    Handles both the fault x severity cells and the no-backup
    oscillation-death guarantee run (``payload["backup"] is None``).
    """
    payload = task.payload
    backup = payload["backup"]
    scenario = FaultSchedule(
        [
            ScheduledFault(
                standard_fault(payload["kind"], payload["severity"]),
                start_s=payload["onset_s"],
            )
        ],
        name=payload["name"],
    )
    trng = SupervisedTrng(
        payload["primary"],
        (backup,) if backup is not None else (),
        board=payload["board"],
        block_bits=payload["block_bits"],
    )
    result = trng.run(payload["bit_budget"], scenario=scenario, seed=task.seed)
    outcome, latency, alarm_count = _outcome(result, payload["onset_s"])
    return {
        "outcome": outcome,
        "latency": latency,
        "alarm_count": alarm_count,
        "final_state": result.final_state.value,
        "bit_count": result.bit_count,
        "emitted_after_first_alarm": result.emitted_after_first_alarm,
    }


def run(
    board: Optional[Board] = None,
    severities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    bit_budget: int = 10_240,
    block_bits: int = 512,
    onset_s: float = 0.25,
    seed: int = 101,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
) -> ExperimentResult:
    """Sweep fault kind x severity through the supervised runtime.

    Each cell runs a fresh :class:`SupervisedTrng` on an IRO 5C primary
    with an STR 48C backup; the fault activates at ``onset_s`` (after
    startup qualification) and persists.  Detection latency is the time
    from fault onset to the first health alarm — the honest figure,
    since the supervisor only ever sees the health tests, never the
    fault itself.

    The cells are independent supervised runs with per-cell seeds, so
    the matrix fans out as ``jobs`` jobs (the caller plus ``jobs - 1``
    workers) and caches per
    cell; results are identical for any job count.
    """
    board = board if board is not None else Board()
    primary = RingSpec("iro", 5)
    backup = RingSpec("str", 48)
    board_fp = fingerprint(board)

    def _task(kind: str, severity: float, cell_backup, name: str, cell_seed: int) -> GridTask:
        return GridTask(
            kind="ext10_cell",
            spec={
                "board": board_fp,
                "primary": primary.label,
                "backup": cell_backup.label if cell_backup is not None else None,
                "fault": kind,
                "severity": float(severity),
                "bit_budget": bit_budget,
                "block_bits": block_bits,
                "onset_s": onset_s,
            },
            seed=cell_seed,
            payload={
                "board": board,
                "primary": primary,
                "backup": cell_backup,
                "kind": kind,
                "severity": float(severity),
                "bit_budget": bit_budget,
                "block_bits": block_bits,
                "onset_s": onset_s,
                "name": name,
            },
        )

    tasks: List[GridTask] = []
    cell_keys: List[Tuple[str, float]] = []
    for kind_index, kind in enumerate(FAULT_KINDS):
        for severity_index, severity in enumerate(severities):
            tasks.append(
                _task(
                    kind,
                    severity,
                    backup,
                    f"{kind}@{severity:g}",
                    seed + 13 * kind_index + severity_index,
                )
            )
            cell_keys.append((kind, float(severity)))
    # The hard guarantee: oscillation death with no viable backup must
    # end in TOTAL_FAILURE having emitted nothing after the alarm.
    tasks.append(_task("stuck", 1.0, None, "stuck_no_backup", seed + 997))

    outcomes = run_grid(tasks, _cell_worker, jobs=jobs, cache=cache)
    dead = outcomes.pop()

    rows: List[Tuple] = []
    checks = {}
    detected_at_max = {}
    stuck_detected = []
    brownout_max_outcome = ""
    for (kind, severity), cell in zip(cell_keys, outcomes):
        detected = cell["outcome"] != "no alarm"
        rows.append(
            (
                kind,
                f"{severity:.2f}",
                "yes" if detected else "no",
                cell["latency"],
                cell["alarm_count"],
                cell["outcome"],
                cell["final_state"],
                cell["bit_count"],
            )
        )
        if severity == max(severities):
            detected_at_max[kind] = detected
            if kind == "brownout":
                brownout_max_outcome = cell["outcome"]
        if kind == "stuck":
            stuck_detected.append(detected)

    for kind in FAULT_KINDS:
        checks[f"{kind}_detected_at_max_severity"] = detected_at_max[kind]
    checks["stuck_detected_at_every_severity"] = all(stuck_detected)
    checks["brownout_max_fails_over_to_backup"] = brownout_max_outcome == "failover"
    checks["no_backup_stuck_is_total_failure"] = (
        dead["final_state"] == TrngState.TOTAL_FAILURE.value
    )
    checks["no_bits_after_total_failure_alarm"] = dead["emitted_after_first_alarm"] == 0

    return ExperimentResult(
        experiment_id="EXT10",
        title="Fault-injection campaign: detection latency and recovery coverage "
        "(extension)",
        columns=(
            "fault",
            "severity",
            "detected",
            "latency [ms]",
            "alarms",
            "deepest recovery",
            "final state",
            "bits emitted",
        ),
        rows=rows,
        paper_reference={
            "claim_C4": "the STR oscillation frequency remains inside a 1.3% "
            "band over the 0.9-1.3 V sweep where IROs move ~4x",
            "claim_C5": "STR period jitter is essentially independent of ring "
            "length — robustness argues for the STR as entropy source",
            "lineage": "online health supervision per SP 800-90B / AIS-31; "
            "the failover row is C4/C5 exercised end to end",
        },
        checks=checks,
        notes=(
            "Latency is fault onset to first health alarm; '-' marks faults "
            "the SP 800-90B tests cannot see at that severity (the source "
            "still delivers acceptable entropy there, e.g. a mild brownout "
            "moves period and jitter together per Fig. 8). The brownout and "
            "ripple rows reproduce the paper's asymmetry: the IRO primary "
            "injection-locks and the supervisor fails over to the STR "
            "backup, which stays below the lock threshold at every swept "
            "severity."
        ),
    )

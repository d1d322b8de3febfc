"""Seed-sweep flakiness runner for the claims registry.

One claim checked at one hand-picked seed is a point estimate of a
distribution over seeds — exactly the failure mode ISSUE 5 exists to
kill.  The runner executes every selected claim at ``N`` *derived*
seeds (stable per claim, independent of which other claims run), fans
the (claim, seed) grid out through :func:`repro.parallel.run_grid`, and
reports each claim's pass **rate** with a Wilson confidence interval
instead of a single verdict.

Failures are not just reported: each failing (claim, seed) pair is
written as a replay bundle (:mod:`repro.verify.replay`) that reproduces
the exact check with one command.

Outcomes are plain JSON dicts, so the executor's :class:`ResultCache`
memoizes claim executions content-addressed by (claim, params, seed) —
re-running ``repro verify`` after an unrelated change is nearly free.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.parallel import GridStats, GridTask, GridWorkload, ResultCache, run_grid
from repro.telemetry import default_registry, span
from repro.verify.claims import ClaimOutcome, all_claim_ids, get_claim
from repro.verify.criteria import wilson_interval

#: Cache kind for verification grid points.
TASK_KIND = "verify_claim"


def derive_claim_seeds(root_seed: int, claim_id: str, count: int) -> List[int]:
    """``count`` independent seeds for one claim.

    The stream is keyed by (root seed, claim id), NOT by the claim's
    position in the sweep: verifying a subset of claims, or adding a new
    claim to the registry, never shifts the seeds of the others — so
    cached outcomes and recorded replay bundles stay valid.
    """
    if count < 1:
        raise ValueError(f"seed count must be positive, got {count}")
    sequence = np.random.SeedSequence(
        [int(root_seed), zlib.crc32(claim_id.upper().encode("utf-8"))]
    )
    return [int(state) for state in sequence.generate_state(count)]


def _claim_task_worker(task: GridTask) -> Dict[str, Any]:
    """Module-level (hence picklable) worker: run one claim at one seed."""
    spec = task.spec
    outcome = get_claim(spec["claim"]).run(
        seed=int(task.seed or 0), params=spec["params"]
    )
    return outcome.to_dict()


@dataclasses.dataclass(frozen=True)
class ClaimSweepResult:
    """All outcomes of one claim across the seed sweep."""

    claim_id: str
    title: str
    criterion: str
    min_pass_rate: float
    outcomes: List[ClaimOutcome]

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def pass_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.passed)

    @property
    def pass_rate(self) -> float:
        return self.pass_count / self.trials

    @property
    def wilson(self) -> tuple:
        """Wilson 95% interval on the pass rate."""
        return wilson_interval(self.pass_count, self.trials)

    @property
    def passed(self) -> bool:
        return self.pass_rate >= self.min_pass_rate

    @property
    def failures(self) -> List[ClaimOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def to_dict(self) -> Dict[str, Any]:
        low, high = self.wilson
        return {
            "claim_id": self.claim_id,
            "title": self.title,
            "criterion": self.criterion,
            "passed": self.passed,
            "pass_count": self.pass_count,
            "trials": self.trials,
            "pass_rate": self.pass_rate,
            "wilson_low": low,
            "wilson_high": high,
            "min_pass_rate": self.min_pass_rate,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """The full sweep: every claim's pass rate plus replay pointers."""

    tier: str
    root_seed: int
    seeds_per_claim: int
    sweeps: List[ClaimSweepResult]
    bundle_paths: List[str]

    @property
    def passed(self) -> bool:
        return all(sweep.passed for sweep in self.sweeps)

    @property
    def failing_claims(self) -> List[str]:
        return [sweep.claim_id for sweep in self.sweeps if not sweep.passed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "root_seed": self.root_seed,
            "seeds_per_claim": self.seeds_per_claim,
            "passed": self.passed,
            "claims": [sweep.to_dict() for sweep in self.sweeps],
            "replay_bundles": list(self.bundle_paths),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable flakiness table."""
        lines = [
            f"claim verification: tier={self.tier} "
            f"seeds/claim={self.seeds_per_claim} root_seed={self.root_seed}",
            "",
            f"{'claim':<14} {'verdict':<8} {'pass rate':<12} "
            f"{'Wilson 95%':<16} criterion",
        ]
        for sweep in self.sweeps:
            low, high = sweep.wilson
            lines.append(
                f"{sweep.claim_id:<14} "
                f"{'PASS' if sweep.passed else 'FAIL':<8} "
                f"{sweep.pass_count}/{sweep.trials:<10} "
                f"[{low:.2f}, {high:.2f}]    "
                f"{sweep.criterion}"
            )
        for sweep in self.sweeps:
            for failure in sweep.failures:
                lines.append("")
                lines.append(f"FAIL {sweep.claim_id} @ seed {failure.seed}:")
                lines.append(f"  {failure.detail}")
        if self.bundle_paths:
            lines.append("")
            lines.append("replay bundles (reproduce with `repro verify --replay FILE`):")
            for path in self.bundle_paths:
                lines.append(f"  {path}")
        lines.append("")
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'}"
            + (
                f" ({', '.join(self.failing_claims)} below required pass rate)"
                if not self.passed
                else f" ({len(self.sweeps)} claims x {self.seeds_per_claim} seeds)"
            )
        )
        return "\n".join(lines)


def verification_args(
    claim_ids: Optional[Sequence[str]],
    tier: str,
    seeds: int,
    root_seed: int,
    overrides: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """The JSON-able args of a (claim, seed) grid; ``None`` selects every claim."""
    return {
        "claims": [get_claim(cid).claim_id for cid in (claim_ids or all_claim_ids())],
        "tier": tier,
        "seeds": int(seeds),
        "root_seed": int(root_seed),
        "overrides": dict(overrides or {}),
    }


def _verification_grid(args: Dict[str, Any]):
    """The full (claim, seed) grid; every seed derived before any split."""
    tasks: List[GridTask] = []
    for claim_id in args["claims"]:
        params = get_claim(claim_id).params_for(args["tier"])
        params.update(args["overrides"])
        for seed in derive_claim_seeds(args["root_seed"], claim_id, args["seeds"]):
            tasks.append(
                GridTask(
                    kind=TASK_KIND,
                    spec={"claim": claim_id, "params": params},
                    seed=seed,
                )
            )
    return tasks, _claim_task_worker


def _verification_report(args: Dict[str, Any], raw: Sequence[Any]) -> VerificationReport:
    """Fold the grid's outcomes into per-claim sweeps, in claim order."""
    outcomes = [ClaimOutcome.from_dict(payload) for payload in raw]
    seeds = args["seeds"]
    sweeps: List[ClaimSweepResult] = []
    for index, claim_id in enumerate(args["claims"]):
        claim = get_claim(claim_id)
        sweeps.append(
            ClaimSweepResult(
                claim_id=claim.claim_id,
                title=claim.title,
                criterion=claim.criterion,
                min_pass_rate=claim.min_pass_rate,
                outcomes=outcomes[index * seeds : (index + 1) * seeds],
            )
        )
    report = VerificationReport(
        tier=args["tier"],
        root_seed=args["root_seed"],
        seeds_per_claim=seeds,
        sweeps=sweeps,
        bundle_paths=[],
    )
    registry = default_registry()
    registry.counter("repro.verify.sweeps").inc()
    if not report.passed:
        registry.counter("repro.verify.sweep_failures").inc()
    return report


#: The (claim, seed) sweep as a shardable grid workload.
VERIFY_WORKLOAD = GridWorkload("verify", _verification_grid, _verification_report)


def run_verification(
    claim_ids: Optional[Sequence[str]] = None,
    *,
    tier: str = "quick",
    seeds: int = 5,
    root_seed: int = 0,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    bundle_dir: Optional[str] = None,
    progress: Optional[Any] = None,
    stats: Optional[GridStats] = None,
) -> VerificationReport:
    """Sweep every selected claim across derived seeds and report.

    ``overrides`` are merged into every claim's tier parameters — the
    injection hook (``{"sigma_g_scale": 2.0}`` is the canonical seeded
    regression).  Because the overridden params land in the task spec,
    injected runs never collide with clean runs in the cache.
    """
    args = verification_args(claim_ids, tier, seeds, root_seed, overrides)
    tasks, worker = _verification_grid(args)
    with span(
        "verify_sweep", tier=tier, claims=len(args["claims"]), seeds=seeds
    ) as tele:
        raw = run_grid(
            tasks, worker, jobs=jobs, cache=cache, progress=progress, stats=stats
        )
        report = _verification_report(args, raw)
        if bundle_dir is not None:
            from repro.verify.replay import write_replay_bundle

            report = dataclasses.replace(
                report,
                bundle_paths=[
                    str(write_replay_bundle(failure, tier=tier, directory=bundle_dir))
                    for sweep in report.sweeps
                    for failure in sweep.failures
                ],
            )
        tele.set("passed", report.passed)
        return report

"""Full characterization campaigns over arbitrary ring sets.

:mod:`repro.core.comparison` answers the paper's specific question (one
IRO vs one STR).  This module is the general tool a downstream user
reaches for: declare any number of ring configurations, run the whole
Section V measurement program over a board bank, and get one
serializable report — frequencies, voltage robustness, extra-device
dispersion, jitter (single-period and long-run diffusion), and the
implied TRNG provisioning for each ring.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.characterization import measure_family_dispersion, sweep_voltage
from repro.fpga.board import Board, BoardBank
from repro.parallel.cache import ResultCache, fingerprint
from repro.parallel.executor import GridStats, GridTask, ProgressCallback, run_grid
from repro.parallel.seeds import spawn_seeds
from repro.parallel.sharding import GridWorkload
from repro.rings.base import simulate_many
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.stats.accumulation import accumulation_profile
from repro.telemetry import get_logger, span
from repro.text_table import aligned_table
from repro.trng.phasewalk import predicted_shannon_entropy, reference_period_for_q

_log = get_logger("repro.core.campaign")

#: Periods per jitter-simulation segment.  A ring's jitter budget is
#: cut into independent seed-spawned segments whose period populations
#: are concatenated: the segments are the campaign's seed tree and the
#: rows of its one kernel call per ring family, not a unit of
#: parallelism.
DEFAULT_SEGMENT_PERIODS = 512

#: Warm-up discarded before each segment's jitter statistics.
CAMPAIGN_WARMUP_PERIODS = 256


@dataclasses.dataclass(frozen=True)
class RingSpec:
    """One ring configuration to characterize."""

    kind: str  # "iro" | "str"
    stage_count: int
    token_count: Optional[int] = None  # STR only; None = balanced

    def __post_init__(self) -> None:
        if self.kind not in ("iro", "str"):
            raise ValueError(f"kind must be 'iro' or 'str', got {self.kind!r}")
        if self.stage_count < 3:
            raise ValueError(f"need at least 3 stages, got {self.stage_count}")
        if self.kind == "iro" and self.token_count is not None:
            raise ValueError("token_count only applies to STRs")

    @property
    def label(self) -> str:
        return f"{self.kind.upper()} {self.stage_count}C"

    def build(self, board: Board):
        if self.kind == "iro":
            return InverterRingOscillator.on_board(board, self.stage_count)
        return SelfTimedRing.on_board(
            board, self.stage_count, token_count=self.token_count
        )


@dataclasses.dataclass(frozen=True)
class RingCampaignResult:
    """Everything measured for one ring configuration."""

    label: str
    nominal_frequency_mhz: float
    delta_f: float
    linearity_r2: float
    sigma_rel: float
    board_frequencies_mhz: List[float]
    period_jitter_ps: float
    diffusion_sigma_ps: float
    trng_reference_period_ps: float
    trng_entropy_bound: float

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """All ring results plus the campaign configuration."""

    results: List[RingCampaignResult]
    voltages_v: List[float]
    board_count: int
    q_target: float

    def result_for(self, label: str) -> RingCampaignResult:
        for result in self.results:
            if result.label == label:
                return result
        raise KeyError(f"no campaign result for {label!r}")

    def render(self) -> str:
        header = (
            "ring",
            "F [MHz]",
            "delta F",
            "sigma_rel",
            "sigma_p [ps]",
            "diffusion [ps]",
            "T_ref(Q) [us]",
            "H bound",
        )
        rows = [header]
        for result in self.results:
            rows.append(
                (
                    result.label,
                    f"{result.nominal_frequency_mhz:.1f}",
                    f"{result.delta_f:.1%}",
                    f"{result.sigma_rel:.2%}",
                    f"{result.period_jitter_ps:.2f}",
                    f"{result.diffusion_sigma_ps:.2f}",
                    f"{result.trng_reference_period_ps / 1e6:.1f}",
                    f"{result.trng_entropy_bound:.4f}",
                )
            )
        return aligned_table(rows)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "voltages_v": self.voltages_v,
            "board_count": self.board_count,
            "q_target": self.q_target,
            "results": [result.to_dict() for result in self.results],
        }
        return json.dumps(payload, indent=indent)


def _segment_lengths(total_periods: int) -> List[int]:
    """Split a period budget into simulation segments.

    Full segments of :data:`DEFAULT_SEGMENT_PERIODS` plus the remainder;
    a remainder too short to yield a jitter estimate (< 2 periods) is
    folded into the last segment.
    """
    if total_periods < 2:
        raise ValueError(f"a jitter estimate needs at least 2 periods, got {total_periods}")
    lengths = [DEFAULT_SEGMENT_PERIODS] * (total_periods // DEFAULT_SEGMENT_PERIODS)
    remainder = total_periods % DEFAULT_SEGMENT_PERIODS
    if remainder >= 2:
        lengths.append(remainder)
    elif remainder:
        lengths[-1] += remainder
    return lengths


def _campaign_family_worker(task: GridTask) -> List[List[float]]:
    """Grid worker: the period population of each ring of one family.

    The rows are every segment of every ring, ring-major.  The batch
    backend runs them in one :func:`simulate_many` call, the event
    backend as a loop over the event oracle; a ring's population is its
    segments concatenated.
    """
    spec = task.spec
    rows = [
        (ring, count, seed)
        for ring, ring_seeds in zip(task.payload, spec["seeds"])
        for count, seed in zip(spec["period_counts"], ring_seeds)
    ]
    warmup = spec["warmup_periods"]
    if spec["backend"] == "batch":
        rings, counts, seeds = zip(*rows)
        results = simulate_many(rings, counts, seeds, warmup_periods=warmup)
    else:
        results = [
            ring.simulate(count, seed=seed, warmup_periods=warmup, backend="event")
            for ring, count, seed in rows
        ]
    per_ring = len(spec["period_counts"])
    return [
        [
            float(period)
            for result in results[index : index + per_ring]
            for period in result.trace.periods_ps()
        ]
        for index in range(0, len(results), per_ring)
    ]


def campaign_args(
    specs: Sequence[RingSpec],
    *,
    voltages_v: Sequence[float] = (1.0, 1.2, 1.4),
    jitter_periods: int = 2048,
    q_target: float = 0.2,
    seed: Optional[int] = 0,
    backend: str = "batch",
) -> Dict[str, Any]:
    """The JSON-able args of a campaign grid.

    A sharded campaign manufactures its bank, so its args add
    ``board_count`` and ``bank_seed`` (see :data:`CAMPAIGN_WORKLOAD`).
    """
    if not specs:
        raise ValueError("need at least one ring spec")
    if backend not in ("event", "batch"):
        raise ValueError(f"backend must be 'event' or 'batch', got {backend!r}")
    return {
        "specs": [dataclasses.asdict(spec) for spec in specs],
        "voltages_v": [float(v) for v in voltages_v],
        "jitter_periods": int(jitter_periods),
        "q_target": float(q_target),
        "seed": seed,
        "backend": backend,
    }


def _family_members(specs: Sequence[RingSpec]) -> Dict[str, List[int]]:
    """Spec indices per ring family, in order of first appearance."""
    members: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        members.setdefault(spec.kind, []).append(index)
    return members


def _campaign_grid(args: Dict[str, Any], bank: BoardBank):
    """The campaign's grid: one task per ring family, seeds derived first.

    The one place the segment/seed tree is derived: one child of the
    root seed per spec, one grandchild per segment.  A family's task
    holds the rows one kernel call runs (every segment of each of its
    rings); its spec names the rings by fingerprint, the segments, their
    seeds and the backend, so event and batch results never share a
    cache entry.  Every path (either backend, a shard, a merge replay)
    builds the *whole* grid from the same args.
    """
    specs = [RingSpec(**entry) for entry in args["specs"]]
    lengths = _segment_lengths(args["jitter_periods"])
    rings = [spec.build(bank[0]) for spec in specs]
    segment_seeds = [
        spawn_seeds(spec_seed, len(lengths))
        for spec_seed in spawn_seeds(args["seed"], len(specs))
    ]
    tasks = [
        GridTask(
            kind="campaign_jitter_family",
            spec={
                "rings": [fingerprint(rings[index]) for index in indices],
                "period_counts": lengths,
                "warmup_periods": CAMPAIGN_WARMUP_PERIODS,
                "seeds": [segment_seeds[index] for index in indices],
                "backend": args["backend"],
            },
            payload=[rings[index] for index in indices],
        )
        for indices in _family_members(specs).values()
    ]
    return tasks, _campaign_family_worker


def _campaign_report(
    args: Dict[str, Any], bank: BoardBank, families: Sequence[List[List[float]]]
) -> CampaignReport:
    """Fold the period populations and the bank measurements into the report."""
    specs = [RingSpec(**entry) for entry in args["specs"]]
    populations: Dict[int, List[float]] = {}
    for indices, rows in zip(_family_members(specs).values(), families):
        populations.update(zip(indices, rows))
    results: List[RingCampaignResult] = []
    for index, spec in enumerate(specs):
        sweep = sweep_voltage(bank[0], spec.build, args["voltages_v"])
        dispersion = measure_family_dispersion(bank, spec.build)
        periods = np.asarray(populations[index], dtype=float)
        results.append(
            _assemble_result(
                spec, spec.build(bank[0]), sweep, dispersion, periods, args["q_target"]
            )
        )
    return CampaignReport(
        results=results,
        voltages_v=list(args["voltages_v"]),
        board_count=len(bank),
        q_target=args["q_target"],
    )


def _assemble_result(
    spec: RingSpec,
    ring,
    sweep,
    dispersion,
    periods: np.ndarray,
    q_target: float,
) -> RingCampaignResult:
    """Fold one spec's measurements into its campaign row."""
    diffusion = accumulation_profile(periods).diffusion_sigma_ps
    reference = reference_period_for_q(ring.predicted_period_ps(), diffusion, q_target)
    q_reached = q_target  # by construction of the reference period
    return RingCampaignResult(
        label=spec.label,
        nominal_frequency_mhz=ring.predicted_frequency_mhz(),
        delta_f=float(sweep.excursion()),
        linearity_r2=float(sweep.linearity()),
        sigma_rel=float(dispersion.sigma_rel),
        board_frequencies_mhz=[float(f) for f in dispersion.frequencies_mhz],
        period_jitter_ps=float(np.std(periods, ddof=1)),
        diffusion_sigma_ps=float(diffusion),
        trng_reference_period_ps=float(reference),
        trng_entropy_bound=float(predicted_shannon_entropy(q_reached)),
    )


def run_campaign(
    specs: Sequence[RingSpec],
    bank: Optional[BoardBank] = None,
    voltages_v: Sequence[float] = (1.0, 1.2, 1.4),
    jitter_periods: int = 2048,
    q_target: float = 0.2,
    seed: Optional[int] = 0,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    backend: str = "batch",
    stats: Optional[GridStats] = None,
) -> CampaignReport:
    """Characterize every spec over the bank and assemble the report.

    The TRNG provisioning column uses the measured long-run *diffusion*
    rate (not the single-period sigma) — the conservative figure an STR
    designer must use (see docs/theory.md Section 7).

    The jitter simulations — the campaign's entire cost — are cut into
    independent seed-spawned segments of :data:`DEFAULT_SEGMENT_PERIODS`
    and run as one grid task per ring family: ``backend="batch"`` makes
    one :func:`simulate_many` kernel call per family, ``backend="event"``
    loops the same rows over the event oracle.  Either backend fans the
    tasks out as ``jobs`` jobs (the caller plus ``jobs - 1`` workers),
    consults ``cache`` per task, reports to ``progress`` and ``stats``,
    and shards through :data:`CAMPAIGN_WORKLOAD`.  Any job count gives
    bit-identical reports because the rows and their seeds depend only
    on the arguments.  IRO rows are bit-identical across the backends,
    STR rows statistically equivalent.  The root ``seed`` must be an
    integer (or ``None``); a ``numpy.random.Generator`` raises
    ``TypeError``.
    """
    args = campaign_args(
        specs,
        voltages_v=voltages_v,
        jitter_periods=jitter_periods,
        q_target=q_target,
        seed=seed,
        backend=backend,
    )
    bank = bank if bank is not None else BoardBank.manufacture(board_count=5, seed=0)
    with span(
        "campaign", specs=len(specs), jitter_periods=jitter_periods
    ) as tele:
        _log.info(
            "campaign.start",
            specs=[spec.label for spec in specs],
            jitter_periods=jitter_periods,
            backend=backend,
        )
        tasks, worker = _campaign_grid(args, bank)
        tele.set("tasks", len(tasks))
        families = run_grid(
            tasks, worker, jobs=jobs, cache=cache, progress=progress, stats=stats
        )
        report = _campaign_report(args, bank, families)
        _log.info(
            "campaign.complete",
            rings=len(report.results),
            tasks=len(tasks),
            backend=backend,
        )
        return report


def _manufactured_bank(args: Dict[str, Any]) -> BoardBank:
    return BoardBank.manufacture(board_count=args["board_count"], seed=args["bank_seed"])


#: The sharded campaign: :func:`campaign_args` plus the ``board_count``
#: and ``bank_seed`` of the bank every shard (and the merge) manufactures.
CAMPAIGN_WORKLOAD = GridWorkload(
    "campaign",
    grid=lambda args: _campaign_grid(args, _manufactured_bank(args)),
    assemble=lambda args, segments: _campaign_report(
        args, _manufactured_bank(args), segments
    ),
)

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

#: Periods per jitter-simulation segment in the fanned-out campaign.
#: Segments are the unit of parallelism *within* one ring spec: a long
#: event-driven run is replaced by independent seed-spawned runs whose
#: period populations are concatenated, so a single slow spec (an STR
#: 96C dominates a TAB2-sized grid ~20:1) no longer bounds the whole
#: campaign's wall-clock.  Serial runs use the same segmentation, which
#: is what keeps ``jobs=N`` bit-identical to ``jobs=1``.
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


def _segment_lengths(total_periods: int, segment_periods: int) -> List[int]:
    """Split a period budget into simulation segments.

    Full segments of ``segment_periods`` plus the remainder; a remainder
    too short to yield a jitter estimate (< 2 periods) is folded into
    the last segment.
    """
    if total_periods < 2:
        raise ValueError(f"a jitter estimate needs at least 2 periods, got {total_periods}")
    if segment_periods < 2:
        raise ValueError(f"segments need at least 2 periods, got {segment_periods}")
    lengths = [segment_periods] * (total_periods // segment_periods)
    remainder = total_periods % segment_periods
    if remainder >= 2:
        lengths.append(remainder)
    elif remainder:
        lengths[-1] += remainder
    return lengths


def _campaign_segment_worker(task: GridTask) -> List[float]:
    """Grid worker: the period population of one simulation segment.

    Runs the event oracle explicitly — the event-backend campaign, its
    shards and its segment cache entries all name event-engine results.
    """
    payload = task.payload
    trace = payload["ring"].simulate(
        payload["period_count"],
        seed=task.seed,
        warmup_periods=payload["warmup_periods"],
        backend="event",
    ).trace
    return [float(period) for period in trace.periods_ps()]


def _campaign_segments_batch(tasks: Sequence[GridTask]) -> List[List[float]]:
    """All jitter segments in one :func:`simulate_many` call.

    Runs the very tasks of :func:`_campaign_grid` — same segment
    lengths, same seeds — so IRO segments (bit-exact kernel) reproduce
    the event-backend campaign digits exactly; STR segments are
    statistically equivalent.
    """
    results = simulate_many(
        [task.payload["ring"] for task in tasks],
        [task.payload["period_count"] for task in tasks],
        [task.seed for task in tasks],
        warmup_periods=CAMPAIGN_WARMUP_PERIODS,
    )
    return [[float(period) for period in result.trace.periods_ps()] for result in results]


def campaign_args(
    specs: Sequence[RingSpec],
    *,
    voltages_v: Sequence[float] = (1.0, 1.2, 1.4),
    jitter_periods: int = 2048,
    q_target: float = 0.2,
    seed: Optional[int] = 0,
    segment_periods: int = DEFAULT_SEGMENT_PERIODS,
) -> Dict[str, Any]:
    """The JSON-able args of a campaign grid.

    A sharded campaign manufactures its bank, so its args add
    ``board_count`` and ``bank_seed`` (see :data:`CAMPAIGN_WORKLOAD`).
    """
    if not specs:
        raise ValueError("need at least one ring spec")
    return {
        "specs": [dataclasses.asdict(spec) for spec in specs],
        "voltages_v": [float(v) for v in voltages_v],
        "jitter_periods": int(jitter_periods),
        "q_target": float(q_target),
        "seed": seed,
        "segment_periods": int(segment_periods),
    }


def _campaign_grid(args: Dict[str, Any], bank: BoardBank):
    """The campaign's flat segment grid, seeds derived before any split.

    The one place the segment/seed tree is derived: one child of the
    root seed per spec, one grandchild per segment.  Every path (either
    backend, a shard, a merge replay) builds the *whole* grid from the
    same args, so a shard owns a subset of exactly the tasks — and
    seeds — the single-host run evaluates.
    """
    specs = [RingSpec(**entry) for entry in args["specs"]]
    lengths = _segment_lengths(args["jitter_periods"], args["segment_periods"])
    tasks: List[GridTask] = []
    for spec, spec_seed in zip(specs, spawn_seeds(args["seed"], len(specs))):
        ring = spec.build(bank[0])
        ring_key = fingerprint(ring)
        segment_seeds = spawn_seeds(spec_seed, len(lengths))
        for segment_index, (length, segment_seed) in enumerate(zip(lengths, segment_seeds)):
            tasks.append(
                GridTask(
                    kind="campaign_jitter_segment",
                    spec={
                        "ring": ring_key,
                        "label": spec.label,
                        "segment": segment_index,
                        "period_count": length,
                        "warmup_periods": CAMPAIGN_WARMUP_PERIODS,
                    },
                    seed=segment_seed,
                    payload={
                        "ring": ring,
                        "period_count": length,
                        "warmup_periods": CAMPAIGN_WARMUP_PERIODS,
                    },
                )
            )
    return tasks, _campaign_segment_worker


def _campaign_report(
    args: Dict[str, Any], bank: BoardBank, segments: Sequence[List[float]]
) -> CampaignReport:
    """Fold the segment populations and the bank measurements into the report."""
    specs = [RingSpec(**entry) for entry in args["specs"]]
    per_spec = len(segments) // len(specs)
    results: List[RingCampaignResult] = []
    for index, spec in enumerate(specs):
        sweep = sweep_voltage(bank[0], spec.build, args["voltages_v"])
        dispersion = measure_family_dispersion(bank, spec.build)
        own = segments[index * per_spec : (index + 1) * per_spec]
        periods = np.concatenate([np.asarray(segment, dtype=float) for segment in own])
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
    segment_periods: int = DEFAULT_SEGMENT_PERIODS,
    progress: Optional[ProgressCallback] = None,
    backend: str = "event",
    stats: Optional[GridStats] = None,
) -> CampaignReport:
    """Characterize every spec over the bank and assemble the report.

    The TRNG provisioning column uses the measured long-run *diffusion*
    rate (not the single-period sigma) — the conservative figure an STR
    designer must use (see docs/theory.md Section 7).

    The jitter simulations — the campaign's entire cost — are cut into
    independent seed-spawned segments (``segment_periods`` each) and
    fanned out as ``jobs`` jobs (the caller plus ``jobs - 1`` workers),
    consulting ``cache`` per
    segment.  Any job count produces bit-identical reports because the
    segment list and its seeds depend only on the arguments, never on
    scheduling.  The root ``seed`` must be an integer (or ``None``); a
    ``numpy.random.Generator`` raises ``TypeError``.

    ``backend="batch"`` runs the very same segment/seed tree through the
    vectorized kernels in-process and uncached, so it refuses ``jobs``,
    ``cache``, ``progress`` and ``stats`` with ``ValueError``: IRO rows
    stay bit-identical to the event path, STR rows are statistically
    equivalent.
    """
    args = campaign_args(
        specs,
        voltages_v=voltages_v,
        jitter_periods=jitter_periods,
        q_target=q_target,
        seed=seed,
        segment_periods=segment_periods,
    )
    if backend not in ("event", "batch"):
        raise ValueError(f"backend must be 'event' or 'batch', got {backend!r}")
    if backend == "batch":
        given = {
            "jobs": jobs != 1,
            "cache": cache is not None,
            "progress": progress is not None,
            "stats": stats is not None,
        }
        refused = [name for name, is_set in given.items() if is_set]
        if refused:
            raise ValueError(
                f"backend='batch' runs in-process and uncached; it takes no "
                f"{', '.join(refused)}"
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
        tele.set("segments", len(tasks))
        if backend == "batch":
            segments = _campaign_segments_batch(tasks)
        else:
            segments = run_grid(
                tasks, worker, jobs=jobs, cache=cache, progress=progress, stats=stats
            )
        report = _campaign_report(args, bank, segments)
        _log.info(
            "campaign.complete",
            rings=len(report.results),
            segments=len(tasks),
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

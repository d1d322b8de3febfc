"""Deterministic grid sharding: partition, run, and merge campaign grids.

One host's process pool stops scaling at its core count.  This module
grows the executor sideways: any flat :class:`~repro.parallel.executor.GridTask`
grid can be split into ``N`` shards addressable by ``(shard_index,
shard_count)``, each shard run on a different host (or sequentially on
one), and the shard output directories merged back into a result that is
**bit-identical** to the single-host run.

The identity rests on three properties, each owned by a different layer:

* **partition-invariant seeds** — every task carries its own seed
  derived from ``(root, grid_index)`` before any partitioning happens
  (:func:`repro.parallel.seeds.spawn_seed_subset`), so the noise stream
  of a grid point never depends on which shard computed it;
* **content-addressed results** — each shard writes its results into a
  private :class:`~repro.parallel.cache.ResultCache`; the union of
  shard caches is conflict-free by construction, so the merge is a pure
  set union with no ordering concerns;
* **deterministic reassembly** — after the merge, replaying the full
  grid against the merged cache is all hits, and the workload's
  ``assemble`` step (campaign report, claim verdicts, ...) is a
  deterministic function of the grid results (:class:`GridWorkload`).

Shard addressing is round-robin: shard ``i`` of ``n`` owns grid indices
``i, i+n, i+2n, ...``.  Round-robin (rather than contiguous blocks)
balances heterogeneous grids — neighboring campaign points often share a
ring spec, and an STR 96C point costs ~20x an IRO 5C point.

Crash safety: a shard directory carries a manifest that is published
*twice* through the cache's atomic-rename discipline — once with
``completed: false`` before any work, once with ``completed: true``
after the metrics snapshot has landed.  A shard that crashed (or is
still running) is therefore detectable by its manifest alone, and
:func:`merge_shards` refuses it loudly rather than producing a silent
partial merge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.parallel.cache import (
    ResultCache,
    _package_version,
    atomic_write_json,
    canonical,
    read_json,
)
from repro.parallel.executor import GridStats, GridTask, ProgressCallback, run_grid
from repro.telemetry import MetricsRegistry, MetricsSnapshot, use_registry

#: Manifest filename inside a shard (and merged) output directory.
MANIFEST_NAME = "shard_manifest.json"

#: Metrics snapshot filename inside a shard (and merged) output directory.
METRICS_NAME = "metrics.json"

#: Cache subdirectory inside a shard (and merged) output directory.
CACHE_DIR_NAME = "cache"


class ShardError(RuntimeError):
    """A shard or merge invariant was violated; the message says which."""


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard's address within an ``N``-way partition.

    ``index`` is zero-based: the valid addresses of a 4-way split are
    ``0/4`` through ``3/4``.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError(
                f"shard count must be at least 1, got {self.count} "
                f"(a single-host run is --shard 0/1)"
            )
        if self.index < 0:
            raise ShardError(
                f"shard index must be non-negative, got {self.index} "
                f"(shard addresses are zero-based)"
            )
        if self.index >= self.count:
            raise ShardError(
                f"shard index {self.index} out of range for {self.count} shard(s); "
                f"valid addresses are 0/{self.count} .. {self.count - 1}/{self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse an ``INDEX/COUNT`` address such as ``"0/4"``."""
        parts = str(text).strip().split("/")
        if len(parts) != 2:
            raise ShardError(
                f"malformed shard address {text!r}; expected INDEX/COUNT, e.g. 0/4"
            )
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ShardError(
                f"malformed shard address {text!r}; INDEX and COUNT must be integers"
            ) from None
        return cls(index=index, count=count)

    def render(self) -> str:
        return f"{self.index}/{self.count}"

    def indices(self, task_count: int) -> List[int]:
        """The grid indices this shard owns (round-robin partition)."""
        if task_count < 0:
            raise ValueError(f"task_count must be non-negative, got {task_count}")
        return list(range(self.index, task_count, self.count))


def grid_signature(tasks: Sequence[GridTask], version: str = "") -> str:
    """Content signature of a grid: what the tasks *are*, not how split.

    Two shards may only be merged when they were carved from the same
    grid; the signature hashes every task's cache identity (kind, spec,
    seed) in grid order plus the package version, so any drift — a
    different ring list, voltage grid, seed, or simulator release —
    yields a different grid id and a loud merge failure.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps({"version": version}, sort_keys=True).encode("utf-8"))
    for task in tasks:
        identity = json.dumps(
            {"kind": task.kind, "spec": canonical(task.spec), "seed": canonical(task.seed)},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest.update(identity.encode("utf-8"))
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class ShardManifest:
    """Atomic, crash-safe record of one shard's execution state.

    Published with ``completed=False`` before the first grid point runs
    and republished with ``completed=True`` only after every result and
    the metrics snapshot are on disk — so a manifest claiming completion
    *implies* a fully usable shard directory.
    """

    grid_id: str
    shard_index: int
    shard_count: int
    grid_task_count: int
    shard_task_count: int
    completed: bool
    workload: Dict[str, Any]
    version: str

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardManifest":
        try:
            return cls(
                grid_id=str(payload["grid_id"]),
                shard_index=int(payload["shard_index"]),
                shard_count=int(payload["shard_count"]),
                grid_task_count=int(payload["grid_task_count"]),
                shard_task_count=int(payload["shard_task_count"]),
                completed=bool(payload["completed"]),
                workload=dict(payload.get("workload") or {}),
                version=str(payload.get("version", "")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ShardError(f"malformed shard manifest: {error}") from error

    def write(self, directory: Union[str, Path]) -> None:
        atomic_write_json(Path(directory) / MANIFEST_NAME, self.to_dict())

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShardManifest":
        path = Path(directory) / MANIFEST_NAME
        try:
            payload = read_json(path)
        except FileNotFoundError:
            raise ShardError(
                f"{directory} is not a shard directory (no {MANIFEST_NAME}); "
                f"pass directories produced by a --shard run"
            ) from None
        except (OSError, ValueError) as error:
            raise ShardError(f"unreadable shard manifest {path}: {error}") from error
        if not isinstance(payload, dict):
            raise ShardError(f"malformed shard manifest {path}: expected a JSON object")
        return cls.from_dict(payload)


@dataclasses.dataclass
class ShardRun:
    """What :func:`run_shard` hands back to the driver."""

    manifest: ShardManifest
    results: List[Any]
    indices: List[int]
    stats: GridStats
    out_dir: Path


def run_shard(
    tasks: Sequence[GridTask],
    worker: Callable[[GridTask], Any],
    shard: ShardSpec,
    out_dir: Union[str, Path],
    *,
    workload: Optional[Dict[str, Any]] = None,
    version: str = "",
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[GridStats] = None,
) -> ShardRun:
    """Run one shard of a grid into a self-contained output directory.

    The directory holds the shard's private result cache, its metrics
    snapshot, and a manifest that flips ``completed`` only once both are
    on disk.  Re-running an interrupted shard into the same directory
    resumes from its cache: finished grid points are hits and are
    skipped (the counts land in ``stats``).
    """
    tasks = list(tasks)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = shard.indices(len(tasks))
    manifest = ShardManifest(
        grid_id=grid_signature(tasks, version),
        shard_index=shard.index,
        shard_count=shard.count,
        grid_task_count=len(tasks),
        shard_task_count=len(indices),
        completed=False,
        workload=dict(workload or {}),
        version=version,
    )
    existing = out_dir / MANIFEST_NAME
    if existing.exists():
        previous = ShardManifest.load(out_dir)
        if previous.grid_id != manifest.grid_id:
            raise ShardError(
                f"{out_dir} already holds shard output for a different grid "
                f"(grid id {previous.grid_id[:12]}.. != {manifest.grid_id[:12]}..); "
                f"use a fresh --shard-dir or clear the old one"
            )
        if (previous.shard_index, previous.shard_count) != (shard.index, shard.count):
            raise ShardError(
                f"{out_dir} already holds shard {previous.shard_index}/"
                f"{previous.shard_count} of this grid; refusing to overwrite it "
                f"with shard {shard.render()} — use one directory per shard"
            )
    manifest.write(out_dir)
    cache = ResultCache(out_dir / CACHE_DIR_NAME, version=version or None)
    run_stats = GridStats()
    registry = MetricsRegistry()
    with use_registry(registry):
        results = run_grid(
            [tasks[i] for i in indices],
            worker,
            jobs=jobs,
            cache=cache,
            progress=progress,
            stats=run_stats,
        )
    atomic_write_json(out_dir / METRICS_NAME, registry.snapshot().to_dict())
    manifest = dataclasses.replace(manifest, completed=True)
    manifest.write(out_dir)
    if stats is not None:
        stats.merge(run_stats)
    return ShardRun(
        manifest=manifest, results=results, indices=indices, stats=run_stats, out_dir=out_dir
    )


@dataclasses.dataclass
class MergedRun:
    """What :func:`merge_shards` hands back: a single-host-equivalent state."""

    grid_id: str
    shard_count: int
    grid_task_count: int
    workload: Dict[str, Any]
    version: str
    cache: ResultCache
    metrics: MetricsSnapshot
    entries_absorbed: int
    out_dir: Path


def _validate_shard_set(manifests: List[ShardManifest], shard_dirs: List[Path]) -> None:
    reference = manifests[0]
    for manifest, directory in zip(manifests, shard_dirs):
        if manifest.grid_id != reference.grid_id:
            raise ShardError(
                f"shard directories disagree on the grid: {shard_dirs[0]} has grid id "
                f"{reference.grid_id[:12]}.. but {directory} has "
                f"{manifest.grid_id[:12]}..; shards of different grids cannot be merged"
            )
        if manifest.shard_count != reference.shard_count:
            raise ShardError(
                f"shard directories disagree on the partition width: {shard_dirs[0]} "
                f"was cut {reference.shard_count}-way but {directory} was cut "
                f"{manifest.shard_count}-way"
            )
        if not manifest.completed:
            raise ShardError(
                f"shard {manifest.shard_index}/{manifest.shard_count} in {directory} "
                f"is incomplete (crashed or still running); re-run it with the same "
                f"--shard-dir to resume, then merge again"
            )
    seen: Dict[int, Path] = {}
    for manifest, directory in zip(manifests, shard_dirs):
        if manifest.shard_index in seen:
            raise ShardError(
                f"overlapping shards: both {seen[manifest.shard_index]} and {directory} "
                f"hold shard {manifest.shard_index}/{manifest.shard_count}; "
                f"merge each shard exactly once"
            )
        seen[manifest.shard_index] = directory
    missing = sorted(set(range(reference.shard_count)) - set(seen))
    if missing:
        raise ShardError(
            f"incomplete merge: shard(s) {', '.join(str(i) for i in missing)} of "
            f"{reference.shard_count} missing from the merge set; a partial merge "
            f"would silently drop grid points, so none is produced"
        )


def merge_shards(
    shard_dirs: Sequence[Union[str, Path]], out_dir: Union[str, Path]
) -> MergedRun:
    """Union a complete shard set into one single-host-equivalent directory.

    Validates loudly — mixed grids, mismatched partition widths,
    incomplete shards, duplicates, and missing shard indices all raise
    :class:`ShardError` before anything is written.  On success the
    output directory holds the merged result cache (the union of every
    shard cache), the merged telemetry snapshot, and a manifest, and a
    ``jobs=1`` replay of the grid against that cache is all cache hits —
    which is how the drivers reassemble the final report bit-identically
    to a single-host run.
    """
    shard_dirs = [Path(d) for d in shard_dirs]
    if not shard_dirs:
        raise ShardError("no shard directories given; nothing to merge")
    manifests = [ShardManifest.load(directory) for directory in shard_dirs]
    _validate_shard_set(manifests, shard_dirs)
    reference = manifests[0]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged_cache = ResultCache(out_dir / CACHE_DIR_NAME, version=reference.version or None)
    absorbed = 0
    snapshot = MetricsSnapshot()
    for directory in shard_dirs:
        absorbed += merged_cache.absorb(
            ResultCache(directory / CACHE_DIR_NAME, version=reference.version or None)
        )
        metrics_path = directory / METRICS_NAME
        if metrics_path.exists():
            snapshot = snapshot.merged(MetricsSnapshot.from_dict(read_json(metrics_path)))
    atomic_write_json(out_dir / METRICS_NAME, snapshot.to_dict())
    merged_manifest = ShardManifest(
        grid_id=reference.grid_id,
        shard_index=0,
        shard_count=1,
        grid_task_count=reference.grid_task_count,
        shard_task_count=reference.grid_task_count,
        completed=True,
        workload=reference.workload,
        version=reference.version,
    )
    merged_manifest.write(out_dir)
    return MergedRun(
        grid_id=reference.grid_id,
        shard_count=reference.shard_count,
        grid_task_count=reference.grid_task_count,
        workload=reference.workload,
        version=reference.version,
        cache=merged_cache,
        metrics=snapshot,
        entries_absorbed=absorbed,
        out_dir=out_dir,
    )


#: ``grid(args) -> (tasks, worker)``: a workload's whole grid from its JSON-able args.
GridBuilder = Callable[[Dict[str, Any]], Tuple[List[GridTask], Callable[[GridTask], Any]]]


@dataclasses.dataclass(frozen=True)
class GridWorkload:
    """A grid that runs on one host, shards and merges through one protocol.

    A workload declares ``grid(args)`` and ``assemble(args, results)``
    over one JSON-able ``args`` dict.  The single-host run is
    ``assemble(args, run_grid(*grid(args), ...))``; a shard records
    ``{"workload": name, "args": args}`` in its manifest, so a merged
    shard set rebuilds the same grid and replays it against the merged
    cache.
    """

    name: str
    grid: GridBuilder
    assemble: Callable[[Dict[str, Any], List[Any]], Any]

    def shard(
        self,
        args: Dict[str, Any],
        shard: ShardSpec,
        out_dir: Union[str, Path],
        *,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        stats: Optional[GridStats] = None,
    ) -> ShardRun:
        """Run this shard of the grid ``args`` describe into ``out_dir``."""
        tasks, worker = self.grid(args)
        return run_shard(
            tasks,
            worker,
            shard,
            out_dir,
            workload={"workload": self.name, "args": args},
            version=_package_version(),
            jobs=jobs,
            progress=progress,
            stats=stats,
        )

    def replay(
        self,
        merged: MergedRun,
        *,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        stats: Optional[GridStats] = None,
    ) -> Any:
        """Reassemble a merged shard set: the grid replays as all cache hits."""
        kind = merged.workload.get("workload")
        if kind != self.name:
            article = "an" if self.name[:1].lower() in "aeiou" else "a"
            raise ValueError(
                f"{merged.out_dir} holds a {kind!r} workload, "
                f"not {article} {self.name} grid"
            )
        if "args" not in merged.workload:
            raise ShardError(
                f"cannot reassemble {merged.out_dir}: its shard manifests describe "
                f"the {self.name} workload in an older format (no 'args'); "
                f"re-run the shards"
            )
        args = merged.workload["args"]
        try:
            tasks, worker = self.grid(args)
        except KeyError as error:
            raise ShardError(
                f"cannot reassemble {merged.out_dir}: its {self.name} args lack "
                f"{error.args[0]!r}, so an older version wrote them; re-run the shards"
            ) from None
        results = run_grid(
            tasks, worker, jobs=jobs, cache=merged.cache, progress=progress, stats=stats
        )
        return self.assemble(args, results)

"""Parallel campaign execution: seed fan-out, result cache, process pool, shards.

Every measurement campaign in this library — voltage sweeps (Fig. 8),
board-bank dispersion (Table II), jitter-vs-length curves (Figs. 11/12),
the EXT10 fault x severity matrix — is an embarrassingly parallel grid
of independent event-driven simulations.  This package supplies the
pieces that let those grids scale with cores — and across hosts —
without giving up reproducibility:

* :mod:`repro.parallel.seeds` — deterministic per-point seed derivation,
  bit-identical to ``numpy.random.SeedSequence.spawn`` and computed by
  one vectorised kernel, so a parallel run is
  bit-identical to a serial one and grid points get independent noise
  streams (instead of the historical single reused seed);
* :mod:`repro.parallel.cache` — a content-addressed on-disk result
  cache under ``.repro_cache/`` keyed by (task kind, spec dict, seed,
  package version), so re-running a campaign skips already-simulated
  points;
* :mod:`repro.parallel.executor` — chunked scheduling of grid tasks
  over the calling process and a ``ProcessPoolExecutor`` of ``jobs - 1``
  workers, with progress callbacks and a serial fallback when
  ``jobs=1`` or the pool is unavailable;
* :mod:`repro.parallel.sharding` — deterministic ``(shard_index,
  shard_count)`` partitioning of any grid, crash-safe per-shard output
  directories, and a merge step that reunites shard outputs into a
  state bit-identical to the single-host run.

The design contract that makes parallel == serial == sharded exact:
campaign drivers build one flat list of
:class:`~repro.parallel.executor.GridTask` objects, each carrying its
own derived seed, and the executor evaluates the *same* ``worker(task)``
function either in-line, in the caller beside ``jobs - 1`` worker
processes, or in a shard subset.
Results are always returned in task order, and seeds are derived for the
whole grid before any partitioning.
"""

from repro.parallel.cache import (
    MISSING,
    CacheStats,
    ResultCache,
    atomic_write_json,
    canonical,
    default_cache,
    fingerprint,
    read_json,
)
from repro.parallel.executor import GridStats, GridTask, resolve_jobs, run_grid
from repro.parallel.seeds import spawn_seed_subset, spawn_seeds
from repro.parallel.sharding import (
    GridWorkload,
    MergedRun,
    ShardError,
    ShardManifest,
    ShardRun,
    ShardSpec,
    grid_signature,
    merge_shards,
    run_shard,
)

__all__ = [
    "MISSING",
    "CacheStats",
    "GridStats",
    "GridTask",
    "GridWorkload",
    "MergedRun",
    "ResultCache",
    "ShardError",
    "ShardManifest",
    "ShardRun",
    "ShardSpec",
    "atomic_write_json",
    "canonical",
    "default_cache",
    "fingerprint",
    "grid_signature",
    "merge_shards",
    "read_json",
    "resolve_jobs",
    "run_grid",
    "run_shard",
    "spawn_seed_subset",
    "spawn_seeds",
]

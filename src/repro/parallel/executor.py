"""Grid task scheduling: process-pool fan-out with a serial fallback.

The executor evaluates a flat list of :class:`GridTask` objects with one
``worker(task)`` function.  The contract that keeps parallel runs
bit-identical to serial ones:

* every task carries everything its computation needs (including its
  own derived seed) — workers share no state;
* the executor may evaluate tasks in any order and in any process, but
  always returns results in task order;
* the serial path runs the *same* worker in-line, so ``jobs=1`` is the
  reference implementation, not a different algorithm.

Scheduling is chunked: tasks are dispatched to the pool in contiguous
chunks (several tasks per inter-process round trip) sized so every
worker gets a few chunks — large enough to amortize pickling, small
enough to load-balance heterogeneous grids (an STR 96C point costs
~20x an IRO 5C point).

If the pool cannot be used at all — ``jobs=1``, a sandbox without
semaphores, an unpicklable worker or payload — the executor falls back
to the serial path, recomputing any pending task.  Determinism makes
the fallback free of consistency concerns; a pool that fails is counted
in ``repro.parallel.pool_fallbacks`` and logged as a warning.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.parallel.cache import MISSING, ResultCache
from repro.telemetry import (
    MemorySink,
    MetricsRegistry,
    MetricsSnapshot,
    current_span_id,
    default_registry,
    emit_raw,
    get_logger,
    sink_enabled,
    span,
    use_registry,
    use_sink,
)

_log = get_logger("repro.parallel.executor")

#: Called after each completed task with (done_count, total_count).
ProgressCallback = Callable[[int, int], None]

#: Chunks per worker the chunk-size heuristic aims for.
_CHUNKS_PER_JOB = 4


@dataclasses.dataclass(frozen=True)
class GridTask:
    """One independent grid point.

    Attributes
    ----------
    kind:
        Task family; first component of the cache key.
    spec:
        JSON-able dict fully describing the computation's inputs (put
        rings/boards in as content fingerprints); second key component.
    seed:
        Derived per-point seed (see :func:`repro.parallel.seeds.spawn_seeds`);
        third key component.
    payload:
        Arbitrary picklable work data for the worker (resolved rings,
        boards, ...).  **Not** part of the cache key — everything that
        identifies the computation must be reflected in ``spec``.
    """

    kind: str
    spec: Dict[str, Any]
    seed: Optional[int] = None
    payload: Any = None


@dataclasses.dataclass
class GridStats:
    """Mutable run accounting filled in by :func:`run_grid`.

    Pass an instance through the ``stats`` parameter to learn, after the
    call, how much of the grid was served from the cache versus actually
    executed — the number a resumed campaign prints so the user can see
    finished points being skipped.
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0

    def merge(self, other: "GridStats") -> None:
        """Accumulate another grid's accounting (multi-grid drivers)."""
        self.total += other.total
        self.cache_hits += other.cache_hits
        self.executed += other.executed

    def render(self) -> str:
        return (
            f"{self.total} grid points: {self.cache_hits} cached, "
            f"{self.executed} executed"
        )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a job-count request; ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    return int(jobs)


def _execute_task(
    worker: Callable[[GridTask], Any], task: GridTask, registry: MetricsRegistry
) -> Any:
    """Run one task under its grid-point span and timing metrics.

    Shared by the serial path and the pool workers so both produce the
    same telemetry shape (span ``grid_point`` wrapping whatever the
    worker itself records, e.g. the ring ``simulate`` span).
    """
    with span("grid_point", kind=task.kind, seed=task.seed):
        start = time.perf_counter()
        value = worker(task)
        elapsed = time.perf_counter() - start
    registry.counter("repro.parallel.tasks").inc()
    registry.histogram("repro.parallel.task_seconds").observe(elapsed)
    return value


def _run_chunk(
    worker: Callable[[GridTask], Any],
    tasks: List[GridTask],
    capture_trace: bool = False,
) -> Dict[str, Any]:
    """Evaluate one chunk in a worker process.

    The chunk runs under a *fresh* metrics registry (the worker may have
    inherited the parent's registry state through ``fork``) whose
    snapshot is shipped back for the parent to merge.  When the parent
    is tracing, span/event/log records are captured in a
    :class:`MemorySink` and shipped back too; the parent re-emits them
    into its own sink, re-parenting worker-root spans onto the active
    grid span.
    """
    registry = MetricsRegistry()
    sink = MemorySink() if capture_trace else None
    busy_start = time.perf_counter()
    with use_registry(registry):
        if sink is not None:
            with use_sink(sink):
                values = [_execute_task(worker, task, registry) for task in tasks]
        else:
            values = [_execute_task(worker, task, registry) for task in tasks]
    return {
        "values": values,
        "metrics": registry.snapshot().to_dict(),
        "records": sink.records if sink is not None else [],
        "busy_s": time.perf_counter() - busy_start,
    }


def _chunk_indices(pending: List[int], jobs: int) -> List[List[int]]:
    chunk_size = max(1, math.ceil(len(pending) / (jobs * _CHUNKS_PER_JOB)))
    return [pending[start : start + chunk_size] for start in range(0, len(pending), chunk_size)]


def run_grid(
    tasks: Sequence[GridTask],
    worker: Callable[[GridTask], Any],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[GridStats] = None,
) -> List[Any]:
    """Evaluate every task and return the results in task order.

    Parameters
    ----------
    tasks:
        The grid; evaluated independently.
    worker:
        Module-level callable mapping a task to a JSON-serializable
        result (JSON-ability only matters when ``cache`` is set).
    jobs:
        Worker process count; ``1`` runs serially in-process, ``None``
        or ``0`` uses every core.
    cache:
        Optional :class:`ResultCache`; hits skip the worker entirely and
        fresh results are written back.
    progress:
        Optional ``callback(done, total)``; cache hits are reported
        up-front as already done.
    stats:
        Optional :class:`GridStats` accumulator; on return it has been
        incremented by this grid's total/cache-hit/executed counts.
    """
    tasks = list(tasks)
    total = len(tasks)
    with span(
        "run_grid", kind=tasks[0].kind if tasks else "", tasks=total
    ) as tele:
        registry = default_registry()
        registry.counter("repro.parallel.grids").inc()
        registry.counter("repro.parallel.tasks_submitted").inc(total)
        results: List[Any] = [None] * total
        pending: List[int] = []
        for index, task in enumerate(tasks):
            if cache is not None:
                value = cache.get(task.kind, task.spec, task.seed)
                if value is not MISSING:
                    results[index] = value
                    continue
            pending.append(index)
        done = total - len(pending)
        tele.set("cache_hits", done)
        if stats is not None:
            stats.merge(GridStats(total=total, cache_hits=done, executed=len(pending)))
        if progress is not None and total:
            progress(done, total)
        if not pending:
            return results

        job_count = resolve_jobs(jobs)
        registry.gauge("repro.parallel.jobs").set(job_count)
        completed = False
        if job_count > 1 and len(pending) > 1:
            completed = _run_parallel(
                tasks, pending, worker, job_count, cache, progress, done, total, results
            )
        if not completed:
            _run_serial(tasks, pending, worker, cache, progress, done, total, results)
        tele.set("executed", len(pending))
        return results


def _store(
    cache: Optional[ResultCache], task: GridTask, value: Any, results: List[Any], index: int
) -> None:
    results[index] = value
    if cache is not None:
        cache.put(task.kind, task.spec, task.seed, value)


def _run_serial(
    tasks: List[GridTask],
    pending: List[int],
    worker: Callable[[GridTask], Any],
    cache: Optional[ResultCache],
    progress: Optional[ProgressCallback],
    done: int,
    total: int,
    results: List[Any],
) -> None:
    registry = default_registry()
    for index in pending:
        _store(cache, tasks[index], _execute_task(worker, tasks[index], registry), results, index)
        done += 1
        if progress is not None:
            progress(done, total)


def _run_parallel(
    tasks: List[GridTask],
    pending: List[int],
    worker: Callable[[GridTask], Any],
    jobs: int,
    cache: Optional[ResultCache],
    progress: Optional[ProgressCallback],
    done: int,
    total: int,
    results: List[Any],
) -> bool:
    """Try the pool; return False to request the serial fallback.

    Any pool-layer failure — pickling, a broken worker process, an
    environment without multiprocessing primitives — abandons the pool,
    counted in ``repro.parallel.pool_fallbacks`` and logged as a
    warning naming the exception type.  Genuine worker exceptions simply
    reproduce on the serial retry (the computation is deterministic), so
    nothing is silently swallowed.

    Each completed chunk ships its worker-side metrics snapshot home
    (merged into the parent's default registry) and, when the parent is
    tracing, its captured span/event/log records, which are re-emitted
    into the parent sink with worker-root spans re-parented onto the
    enclosing ``run_grid`` span.
    """
    chunks = _chunk_indices(pending, jobs)
    capture_trace = sink_enabled()
    registry = default_registry()
    parent_span_id = None
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            submitted_at: Dict[Any, float] = {}
            futures = {}
            for chunk in chunks:
                future = pool.submit(
                    _run_chunk, worker, [tasks[i] for i in chunk], capture_trace
                )
                futures[future] = chunk
                submitted_at[future] = time.perf_counter()
            for future in as_completed(futures):
                chunk = futures[future]
                payload = future.result()
                roundtrip_s = time.perf_counter() - submitted_at[future]
                for index, value in zip(chunk, payload["values"]):
                    _store(cache, tasks[index], value, results, index)
                registry.merge(MetricsSnapshot.from_dict(payload["metrics"]))
                registry.counter("repro.parallel.chunks").inc()
                registry.histogram("repro.parallel.chunk_seconds").observe(roundtrip_s)
                # Round trip minus worker compute = queueing + pickling
                # overhead: the "why is my pool idle" number.
                registry.histogram("repro.parallel.queue_wait_seconds").observe(
                    max(0.0, roundtrip_s - payload["busy_s"])
                )
                if payload["records"]:
                    if parent_span_id is None:
                        parent_span_id = current_span_id()
                    for record in payload["records"]:
                        if record.get("parent_id") is None:
                            record["parent_id"] = parent_span_id
                        emit_raw(record)
                done += len(chunk)
                if progress is not None:
                    progress(done, total)
    except Exception as error:
        registry.counter("repro.parallel.pool_fallbacks").inc()
        _log.warning(
            "executor.pool_fallback", error=type(error).__name__, pending=len(pending)
        )
        return False
    return True

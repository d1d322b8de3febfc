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

Scheduling is chunked and the caller works: ``jobs=n`` means ``n``
concurrent computations, the calling process plus ``n - 1`` pool
workers.  Tasks go out in contiguous chunks (several tasks per
inter-process round trip) sized so every job gets a few chunks — large
enough to amortize pickling, small enough to load-balance heterogeneous
grids (an STR 96C point costs ~20x an IRO 5C point).  The pool takes
chunks from the head of the list through a shallow queue, refilled as
each pool chunk finishes; the caller takes them from the tail.

If the pool cannot be used at all — ``jobs=1``, a sandbox without
semaphores, an unpicklable worker or payload — the executor falls back
to the serial path for every task not yet computed.  Determinism makes
the fallback free of consistency concerns; a pool that fails is counted
in ``repro.parallel.pool_fallbacks`` and logged as a warning.  An
exception the worker function raises in a caller chunk is not a pool
failure: it propagates as is.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

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

#: Chunks per job the chunk-size heuristic aims for.
_CHUNKS_PER_JOB = 4

#: Chunks a pool worker may hold, queued or running, at one time.
_QUEUE_PER_WORKER = 2


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

    Shared by the serial path, the caller's chunks and the pool workers
    so all produce the same telemetry shape (span ``grid_point``
    wrapping whatever the worker itself records, e.g. the ring
    ``simulate`` span).
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
        Concurrent computations: the calling process plus ``jobs - 1``
        worker processes.  ``1`` runs serially in-process, ``None`` or
        ``0`` uses every core.
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

        def store(indices: List[int], values: List[Any]) -> None:
            nonlocal done
            for index, value in zip(indices, values):
                results[index] = value
                if cache is not None:
                    task = tasks[index]
                    cache.put(task.kind, task.spec, task.seed, value)
            done += len(indices)
            if progress is not None:
                progress(done, total)

        job_count = resolve_jobs(jobs)
        registry.gauge("repro.parallel.jobs").set(job_count)
        remaining = pending
        if job_count > 1 and len(pending) > 1:
            remaining = _run_parallel(tasks, pending, worker, job_count, store)
        for index in remaining:
            store([index], [_execute_task(worker, tasks[index], registry)])
        tele.set("executed", len(pending))
        return results


class _PoolFailure(Exception):
    """A pool-layer error, as opposed to the worker function's own."""


class _PoolFeed:
    """Keeps up to ``depth`` chunks from the head of the list in the pool.

    Each pool chunk's done-callback, run on a pool thread, submits the
    next chunk, so the workers stay fed while the caller is busy with a
    chunk of its own, which it takes from the tail.  A failed submit or
    chunk stops the feed and is kept in ``error``.
    """

    def __init__(
        self, submit: Callable[[List[int]], Future], chunks: List[List[int]], depth: int
    ) -> None:
        self._submit = submit
        self._chunks = chunks
        self._depth = depth
        # Re-entrant: a chunk already done when its callback is added
        # runs the callback, and so ``top_up``, at once in this thread.
        self._lock = threading.RLock()
        self._running = 0
        self._closed = False
        self._head, self._tail = 0, len(chunks)
        self._sent: Dict[Future, List[int]] = {}
        self.sent_at: Dict[Future, float] = {}
        self.finished_at: Dict[Future, float] = {}
        self.error: Optional[BaseException] = None

    def top_up(self) -> None:
        with self._lock:
            while (
                not self._closed
                and self.error is None
                and self._head < self._tail
                and self._running < self._depth
            ):
                chunk = self._chunks[self._head]
                try:
                    future = self._submit(chunk)
                except Exception as error:
                    self.error = error
                    return
                self._head += 1
                self._running += 1
                self._sent[future] = chunk
                self.sent_at[future] = time.perf_counter()
                future.add_done_callback(self._done)

    def _done(self, future: Future) -> None:
        with self._lock:
            self.finished_at[future] = time.perf_counter()
            self._running -= 1
            if self.error is None:
                self.error = future.exception()
            self.top_up()

    def take_tail(self) -> Optional[List[int]]:
        """The caller's next chunk, or ``None`` once the two ends meet."""
        with self._lock:
            if self._head == self._tail:
                return None
            self._tail -= 1
            return self._chunks[self._tail]

    def uncollected(self, collected: Set[Future]) -> Dict[Future, List[int]]:
        with self._lock:
            return {f: chunk for f, chunk in self._sent.items() if f not in collected}

    def close(self) -> List[List[int]]:
        """Stop feeding; return the chunks neither side took."""
        with self._lock:
            self._closed = True
            return self._chunks[self._head : self._tail]


def _run_parallel(
    tasks: List[GridTask],
    pending: List[int],
    worker: Callable[[GridTask], Any],
    jobs: int,
    store: Callable[[List[int], List[Any]], None],
) -> List[int]:
    """Run the chunks in the caller and ``jobs - 1`` pool workers.

    The pool takes chunks from the head of the chunk list, at most
    ``_QUEUE_PER_WORKER`` per worker at a time, topped up as each one
    finishes (:class:`_PoolFeed`); the caller takes chunks from the
    tail and collects finished pool chunks between its own, until the
    two ends meet.  Every result is stored by task index, so the order
    of completion never shows.

    An exception the worker function raises in a caller chunk propagates
    unchanged.  Any pool-layer failure — pickling, a broken worker
    process, an environment without multiprocessing primitives —
    abandons the pool, counted in ``repro.parallel.pool_fallbacks`` and
    logged as a warning naming the exception type; the pending indices it
    returns are then run serially.  A worker exception inside the pool
    counts as such a failure and simply reproduces on the serial retry
    (the computation is deterministic), so nothing is silently swallowed.

    Each pool chunk ships its worker-side metrics snapshot home (merged
    into the parent's default registry) and, when the parent is tracing,
    its captured span/event/log records, which are re-emitted into the
    parent sink with worker-root spans re-parented onto the enclosing
    ``run_grid`` span.  Caller chunks record straight into the parent's
    registry and sink.
    """
    chunks = _chunk_indices(pending, jobs)
    workers = min(jobs - 1, len(chunks) - 1)
    capture_trace = sink_enabled()
    registry = default_registry()
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except Exception as error:
        return _fall_back(registry, error, pending)
    feed = _PoolFeed(
        lambda chunk: pool.submit(
            _run_chunk, worker, [tasks[i] for i in chunk], capture_trace
        ),
        chunks,
        _QUEUE_PER_WORKER * workers,
    )
    collected: Set[Future] = set()

    def collect(futures: Dict[Future, List[int]], block: bool) -> None:
        for future in as_completed(futures) if block else futures:
            if not future.done():
                continue
            error = future.exception()
            if error is not None:
                raise _PoolFailure() from error
            payload = future.result()
            store(futures[future], payload["values"])
            collected.add(future)
            roundtrip_s = feed.finished_at.get(future, time.perf_counter()) - feed.sent_at[future]
            _merge_chunk(registry, payload, roundtrip_s)

    try:
        # Reserve the caller's chunk before topping up, so even a short
        # list leaves the caller one.
        while (mine := feed.take_tail()) is not None:
            feed.top_up()
            store(mine, [_execute_task(worker, tasks[i], registry) for i in mine])
            registry.counter("repro.parallel.caller_chunks").inc()
            if feed.error is not None:
                raise _PoolFailure() from feed.error
            collect(feed.uncollected(collected), block=False)
        collect(feed.uncollected(collected), block=True)
    except _PoolFailure as failure:
        unrun = [*feed.close(), *feed.uncollected(collected).values()]
        return _fall_back(
            registry, failure.__cause__, sorted(i for chunk in unrun for i in chunk)
        )
    finally:
        feed.close()
        # Not ``cancel_futures=True``: after a pickling failure it can
        # hang the shutdown (CPython 3.11), and the queue is shallow.
        pool.shutdown(wait=True)
    return []


def _fall_back(
    registry: MetricsRegistry, error: Optional[BaseException], left: List[int]
) -> List[int]:
    """Count and log an abandoned pool; return the indices left to run."""
    registry.counter("repro.parallel.pool_fallbacks").inc()
    _log.warning("executor.pool_fallback", error=type(error).__name__, pending=len(left))
    return left


def _merge_chunk(
    registry: MetricsRegistry, payload: Dict[str, Any], roundtrip_s: float
) -> None:
    """Fold one pool chunk's metrics and trace records into the parent."""
    registry.merge(MetricsSnapshot.from_dict(payload["metrics"]))
    registry.counter("repro.parallel.chunks").inc()
    registry.histogram("repro.parallel.chunk_seconds").observe(roundtrip_s)
    # Round trip minus worker compute = queueing + pickling overhead:
    # the "why is my pool idle" number.
    registry.histogram("repro.parallel.queue_wait_seconds").observe(
        max(0.0, roundtrip_s - payload["busy_s"])
    )
    if payload["records"]:
        parent_span_id = current_span_id()
        for record in payload["records"]:
            if record.get("parent_id") is None:
                record["parent_id"] = parent_span_id
            emit_raw(record)

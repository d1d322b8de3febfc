"""Grid executor: serial reference, pool fan-out, cache, fallback."""

import numpy as np
import pytest

from repro.parallel import GridTask, ResultCache, resolve_jobs, run_grid
from repro.telemetry import default_registry


def _square_worker(task):
    """Module-level (hence picklable) worker: seed squared plus an offset."""
    return task.seed * task.seed + task.payload


def _rng_worker(task):
    """Worker that actually draws from the task's seeded generator."""
    rng = np.random.default_rng(task.seed)
    return float(rng.standard_normal(task.payload).sum())


def _tasks(count, payload=0):
    return [
        GridTask(kind="unit", spec={"i": i}, seed=i, payload=payload)
        for i in range(count)
    ]


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestRunGrid:
    def test_serial_results_in_task_order(self):
        results = run_grid(_tasks(6, payload=1), _square_worker, jobs=1)
        assert results == [i * i + 1 for i in range(6)]

    def test_empty_grid(self):
        assert run_grid([], _square_worker, jobs=4) == []

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        tasks = _tasks(9, payload=256)
        serial = run_grid(tasks, _rng_worker, jobs=1)
        parallel = run_grid(tasks, _rng_worker, jobs=jobs)
        assert parallel == serial  # bit-identical floats

    def test_unpicklable_worker_falls_back_to_serial(self):
        offset = 7
        fallbacks = default_registry().counter("repro.parallel.pool_fallbacks")
        before = fallbacks.value
        results = run_grid(
            _tasks(4), lambda task: task.seed + offset, jobs=4
        )
        assert results == [7, 8, 9, 10]
        assert fallbacks.value == before + 1

    def test_progress_reaches_total(self):
        calls = []
        run_grid(_tasks(5), _square_worker, jobs=1, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (5, 5)
        assert all(t == 5 for _, t in calls)
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)


class TestExecutorCache:
    def test_results_are_written_back(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        run_grid(_tasks(4), _square_worker, jobs=1, cache=cache)
        assert cache.stats().entry_count == 4

    def test_warm_run_skips_worker(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(4, payload=3)
        cold = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        warm = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        assert warm == cold
        assert cache.hits == 4

    def test_hits_reported_up_front_in_progress(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(4)
        run_grid(tasks[:2], _square_worker, jobs=1, cache=cache)
        calls = []
        run_grid(tasks, _square_worker, jobs=1, cache=cache,
                 progress=lambda d, t: calls.append((d, t)))
        assert calls[0] == (2, 4)
        assert calls[-1] == (4, 4)

    def test_partial_cache_only_computes_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(6)
        run_grid(tasks[:3], _square_worker, jobs=1, cache=cache)
        poisoned = dict(
            zip([t.seed for t in tasks[:3]], ["a", "b", "c"])
        )
        for task in tasks[:3]:
            cache.put(task.kind, task.spec, task.seed, poisoned[task.seed])
        results = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        # cached entries win verbatim; only the other three were computed
        assert results == ["a", "b", "c", 9, 16, 25]

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(8, payload=64)
        parallel = run_grid(tasks, _rng_worker, jobs=2, cache=cache)
        assert cache.stats().entry_count == 8
        warm = run_grid(tasks, _rng_worker, jobs=1, cache=cache)
        assert warm == parallel


def _pid_worker(task):
    import os

    return os.getpid()


_CALLER_CALLS = []


def _failing_tail_worker(task):
    """Fails on the last task, the one the caller takes from the tail."""
    _CALLER_CALLS.append(task.seed)
    if task.seed == task.payload:
        raise RuntimeError(f"task {task.seed} failed")
    return task.seed


def _marker_worker(task):
    """Every task leaves a marker; the last one waits for all the others.

    The last task is in the caller's tail chunk, so it returns True only
    if the pool ran every other chunk while the caller was busy here.
    """
    import os
    import time

    directory, count = task.payload
    if task.seed < count - 1:
        open(os.path.join(directory, str(task.seed)), "w").close()
        return os.getpid()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if len(os.listdir(directory)) == count - 1:
            return True
        time.sleep(0.01)
    return False


def _counter(name):
    return default_registry().counter(name).value


class TestCallerIsAJob:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_results_cache_and_progress_match_serial(self, tmp_path, jobs):
        tasks = _tasks(11, payload=128)
        serial_cache = ResultCache(root=tmp_path / "serial", version="1")
        parallel_cache = ResultCache(root=tmp_path / "parallel", version="1")
        serial_calls, parallel_calls = [], []
        serial = run_grid(
            tasks, _rng_worker, jobs=1, cache=serial_cache,
            progress=lambda d, t: serial_calls.append((d, t)),
        )
        parallel = run_grid(
            tasks, _rng_worker, jobs=jobs, cache=parallel_cache,
            progress=lambda d, t: parallel_calls.append((d, t)),
        )
        assert parallel == serial
        for task, value in zip(tasks, serial):
            assert parallel_cache.get(task.kind, task.spec, task.seed) == value
        assert parallel_cache.stats().entry_count == serial_cache.stats().entry_count
        done = [d for d, _ in parallel_calls]
        assert done == sorted(done)
        assert parallel_calls[0] == serial_calls[0] == (0, 11)
        assert parallel_calls[-1] == serial_calls[-1] == (11, 11)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_caller_plus_at_most_jobs_minus_one_workers(self, jobs):
        import os

        pids = set(run_grid(_tasks(12), _pid_worker, jobs=jobs))
        assert os.getpid() in pids
        assert len(pids - {os.getpid()}) <= jobs - 1

    def test_two_chunks_split_between_caller_and_worker(self):
        import os

        caller = _counter("repro.parallel.caller_chunks")
        chunks = _counter("repro.parallel.chunks")
        pids = run_grid(_tasks(2), _pid_worker, jobs=2)
        assert pids[1] == os.getpid()  # the caller takes the tail
        assert pids[0] != os.getpid()
        assert _counter("repro.parallel.caller_chunks") == caller + 1
        assert _counter("repro.parallel.chunks") == chunks + 1

    def test_pool_is_fed_while_the_caller_is_busy(self, tmp_path):
        import os

        count = 16
        tasks = [
            GridTask(kind="unit", spec={"i": i}, seed=i, payload=(str(tmp_path), count))
            for i in range(count)
        ]
        results = run_grid(tasks, _marker_worker, jobs=2)
        assert results[-1] is True
        # the caller ran only its first tail chunk; one worker ran the rest
        assert results[-2] == os.getpid()
        assert len(set(results[:-2])) == 1 and os.getpid() not in results[:-2]

    def test_caller_chunk_exception_propagates_without_fallback(self):
        fallbacks = _counter("repro.parallel.pool_fallbacks")
        _CALLER_CALLS.clear()
        with pytest.raises(RuntimeError, match="task 1 failed"):
            run_grid(_tasks(2, payload=1), _failing_tail_worker, jobs=2)
        assert _CALLER_CALLS == [1]  # run once, in the caller, not retried
        assert _counter("repro.parallel.pool_fallbacks") == fallbacks

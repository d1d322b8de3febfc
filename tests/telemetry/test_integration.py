"""Telemetry across layers: executor shipping, cache counters, supervisor."""

from repro.core.campaign import RingSpec
from repro.parallel.cache import MISSING, ResultCache
from repro.parallel.executor import GridTask, run_grid
from repro.telemetry import (
    MemorySink,
    MetricsRegistry,
    use_registry,
    use_sink,
)
from repro.trng.supervisor import SupervisedTrng

SPEC = {"value": 1}


def _double(task: GridTask) -> int:
    return task.spec["value"] * 2


class TestExecutorShipping:
    def test_parallel_metrics_merge_into_parent(self):
        tasks = [GridTask(kind="t", spec={"value": i}, seed=i) for i in range(6)]
        registry = MetricsRegistry()
        with use_registry(registry):
            results = run_grid(tasks, _double, jobs=2)
        assert results == [i * 2 for i in range(6)]
        # Partly executed in a worker process, yet the parent registry
        # holds the aggregate: the snapshots were shipped home and merged.
        assert registry.counter("repro.parallel.tasks").value == 6
        assert registry.counter("repro.parallel.tasks_submitted").value == 6
        assert registry.histogram("repro.parallel.task_seconds").count == 6

    def test_worker_spans_reparent_onto_run_grid(self):
        tasks = [GridTask(kind="t", spec={"value": i}, seed=i) for i in range(4)]
        sink = MemorySink()
        with use_registry(MetricsRegistry()), use_sink(sink):
            run_grid(tasks, _double, jobs=2)
        spans = [r for r in sink.records if r["type"] == "span"]
        grid = next(r for r in spans if r["name"] == "run_grid")
        points = [r for r in spans if r["name"] == "grid_point"]
        assert len(points) == 4
        assert all(point["parent_id"] == grid["span_id"] for point in points)

    def test_serial_path_produces_same_span_shape(self):
        tasks = [GridTask(kind="t", spec={"value": i}, seed=i) for i in range(3)]
        sink = MemorySink()
        with use_registry(MetricsRegistry()), use_sink(sink):
            run_grid(tasks, _double, jobs=1)
        spans = [r for r in sink.records if r["type"] == "span"]
        grid = next(r for r in spans if r["name"] == "run_grid")
        points = [r for r in spans if r["name"] == "grid_point"]
        assert len(points) == 3
        assert all(point["parent_id"] == grid["span_id"] for point in points)


class TestCacheCounters:
    def test_aggregate_counters_span_instances(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = ResultCache(root=tmp_path / "c")
            assert cache.get("k", SPEC, 0) is MISSING
            cache.put("k", SPEC, 0, 42)
            assert cache.get("k", SPEC, 0) == 42
            # A different instance over the same directory: its traffic
            # still lands in the same registry-backed session counters.
            other = ResultCache(root=tmp_path / "c")
            assert other.get("k", SPEC, 0) == 42
            stats = other.stats()
        assert stats.hits == 1  # this instance only
        assert stats.misses == 0
        assert stats.aggregate_hits == 2  # both instances
        assert stats.aggregate_misses == 1
        assert registry.counter("repro.parallel.cache.writes").value == 1

    def test_worker_cache_traffic_counts_at_home(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        tasks = [GridTask(kind="t", spec={"value": i}, seed=i) for i in range(4)]
        registry = MetricsRegistry()
        with use_registry(registry):
            run_grid(tasks, _double, jobs=2, cache=cache)
            run_grid(tasks, _double, jobs=2, cache=cache)
            aggregate_hits = cache.stats().aggregate_hits
        assert registry.counter("repro.parallel.cache.misses").value == 4
        assert registry.counter("repro.parallel.cache.hits").value == 4
        assert aggregate_hits == 4


class TestSupervisorBridge:
    def test_events_and_span_on_the_timeline(self):
        sink = MemorySink()
        registry = MetricsRegistry()
        with use_registry(registry), use_sink(sink):
            trng = SupervisedTrng(RingSpec("iro", 5), block_bits=64, window=64)
            result = trng.run(256, seed=3)
        spans = [r for r in sink.records if r["type"] == "span"]
        run_span = next(r for r in spans if r["name"] == "supervised_run")
        assert run_span["attrs"]["final_state"] == result.final_state.value
        assert run_span["attrs"]["emitted_bits"] == result.bit_count
        events = [r for r in sink.records if r["type"] == "event"]
        assert len(events) == len(result.events)
        assert all(e["parent_id"] == run_span["span_id"] for e in events)
        assert {e["name"] for e in events} == {
            f"supervisor.{kind}" for kind in result.events.kinds()
        }
        assert (
            registry.counter("repro.trng.supervisor.events").value
            == len(result.events)
        )

"""Per-layer attribution for the traced benchmark run.

The benchmark wraps the public calls into each layer of ``repro`` and
keeps a stack of open layer calls.  A layer's *self time* is its call's
duration minus the duration of layer calls nested inside it, so the self
times of all layers plus the time no layer covers add up to the wall
time of the traced work exactly.

Work that ``run_grid`` fans out to pool workers is attributed too.  The
wrappers are installed before the pool forks, so workers run wrapped
code; each worker task is wrapped as well (``_worker_task``) and flushes
its per-layer totals into the worker's metrics registry, which the
executor already snapshots and merges into the parent's registry.  Back
in the parent, the ``run_grid`` wrapper reads those merged totals and
converts them to wall-clock shares: worker time divided by the number of
worker processes that reported.  That share moves from the executor's
self time (the parent was waiting) to the worker's layers, so the
executor keeps only its dispatch, pickling and idle time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.telemetry import default_registry

#: (layer, module, attribute path) of every wrapped public call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("rings", "repro.rings.iro", "InverterRingOscillator.simulate"),
    ("rings", "repro.rings.str_ring", "SelfTimedRing.simulate"),
    ("batch", "repro.simulation.batch", "simulate_iro_batch"),
    ("batch", "repro.simulation.batch", "simulate_str_batch"),
    ("core", "repro.core.characterization", "measure_period_jitter"),
    ("core", "repro.core.characterization", "jitter_versus_length"),
    ("core", "repro.core.campaign", "run_campaign"),
    ("measurement", "repro.measurement.counters", "divide_periods"),
    ("measurement", "repro.measurement.counters", "RippleDivider.divide"),
    ("measurement", "repro.measurement.jitter", "measure_period_jitter_direct"),
    ("measurement", "repro.measurement.jitter", "measure_period_jitter_divider"),
    ("measurement", "repro.measurement.frequency_counter", "FrequencyCounter.measure_periods"),
    ("measurement", "repro.measurement.oscilloscope", "Oscilloscope.acquire"),
    ("measurement", "repro.measurement.differential", "measure_pair"),
    ("stats", "repro.stats.normality", "check_normality"),
    ("stats", "repro.stats.accumulation", "accumulation_profile"),
    ("stats", "repro.stats.accumulation", "allan_profile"),
    ("stats", "repro.stats.fitting", "fit_power_law"),
    ("experiments", "repro.experiments.registry", "run_experiment"),
    ("executor", "repro.parallel.executor", "run_grid"),
    ("cache", "repro.parallel.cache", "ResultCache.get"),
    ("cache", "repro.parallel.cache", "ResultCache.put"),
    ("verify", "repro.verify.claims", "ClaimSpec.run"),
    ("trng", "repro.trng.phasewalk", "PhaseWalkTrng.generate"),
    ("trng", "repro.trng.supervisor", "RingChannel.sample_block"),
    ("trng", "repro.trng.health", "HealthMonitor.ingest"),
    ("pool", "repro.serve.pool", "TrngPool.produce_block"),
    ("pool", "repro.serve.pool", "TrngPool.get_bytes"),
    ("protocol", "repro.serve.protocol", "encode_frame"),
    ("protocol", "repro.serve.protocol", "read_frame"),
    ("puf", "repro.puf.enrollment", "measure_population"),
    ("puf", "repro.puf.enrollment", "population_frequencies"),
    ("puf", "repro.puf.metrics", "score_population"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: ``repro`` sub-package -> its layer.  A grid task's own code (outside
#: wrapped calls) counts for the layer whose package defines the worker.
_PACKAGE_LAYER: Dict[str, str] = {
    module.split(".")[1]: layer for layer, module, _ in reversed(TARGETS)
}

#: Request latency is measured around this call (wall time, not a layer).
_FETCH = ("repro.serve.client", "EntropyClient.fetch")

#: Pseudo-layer of a grid task whose worker no layer's package defines.
_TASK = "task"

#: Prefix of the totals a pool worker ships home through the registry.
_WORKER = "perfbench.worker."


class Totals:
    """Cumulative attribution figures; every field only grows."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, float] = defaultdict(float)  # wall-clock share
        self.busy_ns: Dict[str, float] = defaultdict(float)  # summed over processes
        self.calls: Dict[str, int] = defaultdict(int)
        self.target_ns: Dict[str, float] = defaultdict(float)  # busy, per target
        self.target_calls: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, float] = defaultdict(float)  # outermost calls
        self.claim_ns: Dict[str, float] = defaultdict(float)
        self.claim_calls: Dict[str, int] = defaultdict(int)
        self.fetch_ns = 0.0

    def copy(self) -> "Totals":
        clone = Totals()
        for name, value in vars(self).items():
            setattr(clone, name, value.copy() if isinstance(value, dict) else value)
        return clone


class _Frame:
    __slots__ = ("layer", "target", "start", "child_ns")

    def __init__(self, layer: str, target: str) -> None:
        self.layer = layer
        self.target = target
        self.start = time.perf_counter_ns()
        self.child_ns = 0.0


class LayerTracer:
    """Stack of open layer calls plus the totals they add up to."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.totals = Totals()
        self._stack: List[_Frame] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- bookkeeping ---------------------------------------------------
    def _forked(self) -> None:
        """A pool worker starts with no open calls and no totals."""
        self.totals = Totals()
        self._stack = []
        self._depth = defaultdict(int)

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def enter(self, layer: str, target: str) -> _Frame:
        frame = _Frame(layer, target)
        self._stack.append(frame)
        self._depth[layer] += 1
        self.totals.calls[layer] += 1
        self.totals.target_calls[target] += 1
        return frame

    def leave(self, frame: _Frame) -> float:
        """Close ``frame``; return its duration in nanoseconds."""
        duration = time.perf_counter_ns() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"layer call {frame.target} closed out of order")
        self._depth[frame.layer] -= 1
        self_ns = max(0.0, duration - frame.child_ns)
        totals = self.totals
        totals.self_ns[frame.layer] += self_ns
        totals.busy_ns[frame.layer] += self_ns
        totals.target_ns[frame.target] += self_ns
        if self._depth[frame.layer] == 0:
            totals.inclusive_ns[frame.layer] += duration
        if self._stack:
            self._stack[-1].child_ns += duration
        return duration

    # -- worker attribution ----------------------------------------------
    def flush_to_registry(self) -> None:
        """Ship this worker's totals home with the executor's snapshot."""
        registry = default_registry()
        totals = self.totals
        for kind, values in (
            ("busy", totals.busy_ns),
            ("calls", totals.calls),
            ("target", totals.target_ns),
            ("target_calls", totals.target_calls),
            ("claim_ns", totals.claim_ns),
            ("claim_calls", totals.claim_calls),
        ):
            for name, value in values.items():
                if value:
                    registry.counter(f"{_WORKER}{kind}.{name}").inc(int(value))
        registry.counter(f"{_WORKER}pid.{os.getpid()}").inc()
        self.totals = Totals()

    def fold_worker_totals(self, before: Dict[str, int], grid: _Frame) -> None:
        """Credit worker totals merged during one ``run_grid`` call."""
        after = default_registry().snapshot().counters
        delta = {
            name[len(_WORKER) :]: value - before.get(name, 0)
            for name, value in after.items()
            if name.startswith(_WORKER) and value != before.get(name, 0)
        }
        workers = sum(1 for name in delta if name.startswith("pid."))
        if not workers:
            return
        busy = {name[5:]: v for name, v in delta.items() if name.startswith("busy.")}
        waited_ns = time.perf_counter_ns() - grid.start - grid.child_ns
        scale = 1.0 / workers
        if sum(busy.values()) * scale > waited_ns > 0:
            scale = waited_ns / sum(busy.values())
        totals = self.totals
        for name, value in delta.items():
            kind, _, key = name.partition(".")
            if kind == "busy":
                totals.busy_ns[key] += value
                totals.self_ns[key] += value * scale
            elif kind == "calls":
                totals.calls[key] += value
            elif kind == "target":
                totals.target_ns[key] += value
            elif kind == "target_calls":
                totals.target_calls[key] += value
            elif kind == "claim_ns":
                totals.claim_ns[key] += value
            elif kind == "claim_calls":
                totals.claim_calls[key] += value
        grid.child_ns += sum(busy.values()) * scale

    # -- wrappers --------------------------------------------------------
    def _wrap_sync(self, layer: str, target: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer, target)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)

        return wrapper

    def _wrap_claim(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            frame = tracer.enter("verify", "ClaimSpec.run")
            try:
                return fn(spec, *args, **kwargs)
            finally:
                duration = tracer.leave(frame)
                tracer.totals.claim_ns[spec.claim_id] += duration
                tracer.totals.claim_calls[spec.claim_id] += 1

        return wrapper

    def _wrap_async(self, layer: str, target: str, fn: Callable) -> Callable:
        """Time only the steps the coroutine runs, never its awaits."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _TimedSteps(tracer, layer, target, fn(*args, **kwargs))

        return wrapper

    def _wrap_fetch(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.totals.fetch_ns += time.perf_counter_ns() - start

        return wrapper

    def _wrap_grid(self, fn: Callable) -> Callable:
        tracer = self
        params = list(inspect.signature(fn).parameters)
        worker_index = params.index("worker")

        def timed(worker: Callable) -> Callable:
            package = (getattr(worker, "__module__", "") or "").split(".")
            in_repro = package[0] == "repro" and len(package) > 1
            layer = _PACKAGE_LAYER.get(package[1], _TASK) if in_repro else _TASK
            return functools.partial(_worker_task, worker, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            if len(args) > worker_index:
                args[worker_index] = timed(args[worker_index])
            else:
                kwargs["worker"] = timed(kwargs["worker"])
            before = None if tracer.in_worker else default_registry().snapshot().counters
            frame = tracer.enter("executor", "run_grid")
            try:
                return fn(*args, **kwargs)
            finally:
                if before is not None:
                    tracer.fold_worker_totals(before, frame)
                tracer.leave(frame)

        return wrapper

    def _wrapper_for(self, layer: str, target: str, fn: Callable) -> Callable:
        if target == "run_grid":
            return self._wrap_grid(fn)
        if target == "ClaimSpec.run":
            return self._wrap_claim(fn)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(layer, target, fn)
        return self._wrap_sync(layer, target, fn)

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Wrap every target; module-level names are replaced everywhere."""
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        replacements: Dict[int, Tuple[Any, Any]] = {}
        for layer, module_name, path in TARGETS + (("", *_FETCH),):
            owner: Any = importlib.import_module(module_name)
            *owners, name = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            if path == _FETCH[1]:
                wrapped = self._wrap_fetch(original)
            else:
                wrapped = self._wrapper_for(layer, path, original)
            if owners:
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapped)
            else:
                replacements[id(original)] = (original, wrapped)
        # A function imported by name lives on in the importing module's
        # namespace too; replace every reference so no call escapes.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []


class _TimedSteps:
    """Drive a coroutine, timing each synchronous step as a layer call."""

    def __init__(self, tracer: LayerTracer, layer: str, target: str, coro) -> None:
        self._tracer = tracer
        self._layer = layer
        self._target = target
        self._coro = coro

    def __await__(self):
        steps = self._coro.__await__()
        tracer = self._tracer
        sent: Any = None
        thrown: Any = None
        first = True
        while True:
            frame = tracer.enter(self._layer, self._target)
            if not first:  # one call, many steps
                tracer.totals.calls[self._layer] -= 1
                tracer.totals.target_calls[self._target] -= 1
            first = False
            try:
                yielded = steps.throw(thrown) if thrown is not None else steps.send(sent)
            except StopIteration as done:
                return done.value
            finally:
                tracer.leave(frame)
            try:
                sent, thrown = (yield yielded), None
            except BaseException as error:  # re-raised into the coroutine
                sent, thrown = None, error


def _worker_task(worker: Callable, layer: str, task: Any) -> Any:
    """One grid task; in a pool worker, ship its layer totals home."""
    tracer = _ACTIVE
    if tracer is None:
        return worker(task)
    frame = tracer.enter(layer, _TASK)
    try:
        return worker(task)
    finally:
        tracer.leave(frame)
        if tracer.in_worker:
            tracer.flush_to_registry()


#: The tracer whose wrappers are installed.  ``_worker_task`` reaches it
#: here because grid workers are pickled by name; the tracer, which holds
#: modules and open frames, cannot be pickled.
_ACTIVE: Any = None


def activate(tracer: LayerTracer) -> None:
    global _ACTIVE
    tracer.install()
    _ACTIVE = tracer


def deactivate(tracer: LayerTracer) -> None:
    global _ACTIVE
    tracer.uninstall()
    _ACTIVE = None


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def unit_delta(unit: Any, before: Totals, after: Totals, snap_before: Any, snap_after: Any) -> Dict[str, Any]:
    """The attribution figures of one traced unit."""

    def counter(*names: str) -> int:
        return sum(
            snap_after.counters.get(name, 0) - snap_before.counters.get(name, 0)
            for name in names
        )

    def histogram_sum(name: str) -> float:
        empty = {"sum": 0.0}
        return snap_after.histograms.get(name, empty)["sum"] - snap_before.histograms.get(
            name, empty
        )["sum"]

    claim_ns = _delta(after.claim_ns, before.claim_ns)
    claim_calls = _delta(after.claim_calls, before.claim_calls)
    return {
        "wall_s": unit.seconds,
        "self_s": {key: ns / 1e9 for key, ns in _delta(after.self_ns, before.self_ns).items()},
        "busy_s": {key: ns / 1e9 for key, ns in _delta(after.busy_ns, before.busy_ns).items()},
        "calls": _delta(after.calls, before.calls),
        "target_s": {key: ns / 1e9 for key, ns in _delta(after.target_ns, before.target_ns).items()},
        "target_calls": _delta(after.target_calls, before.target_calls),
        "inclusive_s": {
            key: ns / 1e9 for key, ns in _delta(after.inclusive_ns, before.inclusive_ns).items()
        },
        "max_claim_s": max(
            (claim_ns[key] / claim_calls[key] / 1e9 for key in claim_ns if claim_calls.get(key)),
            default=0.0,
        ),
        "fetch_s": (after.fetch_ns - before.fetch_ns) / 1e9,
        "counters": {
            "ring_events": counter("repro.rings.iro.events", "repro.rings.str.events"),
            "batch_events": counter("repro.batch.events"),
            "batch_fallbacks": counter("repro.batch.fallbacks"),
            "experiment_runs": counter("repro.experiments.runs"),
            "grid_tasks": counter("repro.parallel.tasks"),
            "cache_hits": counter("repro.parallel.cache.hits"),
            "cache_gets": counter("repro.parallel.cache.hits", "repro.parallel.cache.misses"),
            "cache_puts": counter("repro.parallel.cache.writes"),
            "claim_checks": counter("repro.verify.checks"),
            "pool_blocks": counter("repro.serve.pool.blocks_emitted"),
            "puf_devices": counter("repro.puf.devices"),
        },
        "queue_wait_s": histogram_sum("repro.parallel.queue_wait_seconds"),
        "extra": dict(unit.extra),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _unit_metrics(unit: Dict[str, Any]) -> Dict[str, float]:
    self_s = lambda layer: unit["self_s"].get(layer, 0.0)  # noqa: E731
    busy_s = lambda layer: unit["busy_s"].get(layer, 0.0)  # noqa: E731
    calls = lambda layer: unit["calls"].get(layer, 0)  # noqa: E731
    counters = unit["counters"]
    return {
        "rings.calls": calls("rings"),
        "rings.self_s": self_s("rings"),
        "rings.events": counters["ring_events"],
        "rings.events_per_s": _ratio(counters["ring_events"], busy_s("rings")),
        "batch.calls": calls("batch"),
        "batch.self_s": self_s("batch"),
        "batch.events": counters["batch_events"],
        "batch.events_per_s": _ratio(counters["batch_events"], busy_s("batch")),
        "batch.fallback_ratio": _ratio(
            counters["batch_fallbacks"], calls("batch") + counters["batch_fallbacks"]
        ),
        "core.self_s": self_s("core"),
        "measurement.self_s": self_s("measurement"),
        "stats.calls": calls("stats"),
        "stats.self_s": self_s("stats"),
        "experiments.runs": counters["experiment_runs"],
        "experiments.self_s": self_s("experiments"),
        "executor.tasks": counters["grid_tasks"],
        "executor.self_s": self_s("executor"),
        "executor.queue_wait_s": unit["queue_wait_s"],
        "cache.gets": counters["cache_gets"],
        "cache.puts": counters["cache_puts"],
        "cache.hit_ratio": _ratio(counters["cache_hits"], counters["cache_gets"]),
        "cache.bytes_written": unit["extra"].get("cache_bytes", 0),
        "cache.self_s": self_s("cache"),
        "verify.checks": counters["claim_checks"],
        "verify.self_s": self_s("verify"),
        "verify.max_claim_s": unit["max_claim_s"],
        "trng.blocks": unit["target_calls"].get("RingChannel.sample_block", 0),
        "trng.self_s": self_s("trng"),
        # Per-process busy time, scaled to the trng layer's wall-clock share.
        "trng.health_s": unit["target_s"].get("HealthMonitor.ingest", 0.0)
        * _ratio(self_s("trng"), busy_s("trng")),
        "pool.blocks": counters["pool_blocks"],
        "pool.self_s": self_s("pool"),
        "pool.ledger_entries": unit["extra"].get("ledger_entries", 0),
        "serve.protocol_s": self_s("protocol"),
        "serve.wait_s": max(0.0, unit["fetch_s"] - unit["inclusive_s"].get("pool", 0.0)),
        "puf.devices": counters["puf_devices"],
        "puf.self_s": self_s("puf"),
        "puf.devices_per_s": _ratio(counters["puf_devices"], busy_s("puf")),
        "other_s": unit["wall_s"] - sum(self_s(layer) for layer in LAYERS),
        "trace.wall_s": unit["wall_s"],
    }


def layer_metrics(traced_units: List[Dict[str, Any]], untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics: the mean over traced units, plus tracing overhead."""
    rows = [_unit_metrics(unit) for unit in traced_units]
    metrics = {name: sum(row[name] for row in rows) / len(rows) for name in rows[0]}
    traced_wall_s = statistics.mean(unit["wall_s"] for unit in traced_units)
    metrics["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    return metrics

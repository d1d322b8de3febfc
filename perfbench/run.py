"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

The launcher (this process, standard library only) measures set-up time
by starting the workload process three times and timing each from spawn
until it reports ready: twice as a probe that exits right away, and once
for the measured run.  While the measured process runs, the launcher
samples the resident memory of it and its pool workers.

Timings are stated at a reference host speed: the measured process
times a fixed kernel between its units, and scales its times by how
much slower or faster than the reference the host ran (see
``host_scale``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced units and prints the
per-layer metrics (see ``layers.py``).  The last line of standard output
is the result object; a copy with environment stamps is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 3
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
#: Hard limit on the whole run; a run must end within 180 s.
DEADLINE_S = 170.0
RSS_INTERVAL_S = 0.05
#: Typical time of ``reference_kernel`` on the two-vCPU hosts the bounds
#: were set on.  Timed metrics are scaled to that host speed.
REFERENCE_KERNEL_S = 0.12
#: Share of each unit's time the reference kernel runs after it.
KERNEL_SHARE = 0.15


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("launch", "probe", "work"), default="launch")
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# workload process
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class _Node:
    """One node of the reference kernel's event loop."""

    __slots__ = ("delay", "events")

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.events = 0


def reference_kernel() -> float:
    """Seconds a fixed CPU kernel takes now: the host's current speed.

    The kernel runs no ``repro`` code, so no change to the program moves
    it.  It has the workloads' instruction mix: a heap-ordered event
    loop over small Python objects, then numpy sampling and reductions.
    """
    import numpy

    start = time.perf_counter()
    rng = random.Random(7)
    nodes = [_Node(1.0 + 0.01 * index) for index in range(64)]
    queue = [(node.delay, index) for index, node in enumerate(nodes)]
    heapq.heapify(queue)
    times = []
    for _ in range(80_000):
        now, index = heapq.heappop(queue)
        node = nodes[index]
        node.events += 1
        times.append(now)
        heapq.heappush(queue, (now + node.delay + rng.gauss(0.0, 0.05), index))
    numpy.diff(numpy.asarray(times)).std()
    numpy.random.default_rng(3).normal(size=600_000).cumsum().std()
    return time.perf_counter() - start


def sample_host_speed(seconds: float) -> list:
    """Timings of the reference kernel, run for about ``seconds`` (twice at least)."""
    samples = []
    while len(samples) < 2 or sum(samples) < seconds:
        samples.append(reference_kernel())
    return samples


def host_scale(kernel_s) -> float:
    """Factor that states this run's times at the reference host speed.

    The host's speed drifts by tens of percent over minutes, and every
    unit slows with it.  The kernel runs after each unit for a fixed
    share of its time, so its mean timing is the host's speed over the
    run.  ``REFERENCE_KERNEL_S`` over that mean converts the run's times
    to the speed of the host the bounds were set on, and runs made in a
    slow and a fast stretch compare.
    """
    return REFERENCE_KERNEL_S / statistics.mean(kernel_s)


def good_units(units):
    """The units that passed their checks; all of them if none did."""
    return [unit for unit in units if unit.failed == 0] or units


def end_to_end(units, scale: float) -> dict:
    """Each figure as the median over units, times ``scale``.

    Where a workload has units of several kinds, a figure adds up the
    median unit of each kind: the time of one round through them.  With
    ``scale`` 1 the figures are the raw host times.  The median over
    units keeps a slow stretch within one unit from moving the run's
    figure.
    """
    kinds: dict = {}
    for unit in good_units(units):
        kinds.setdefault(unit.kind, []).append(unit)

    def per_round(figure) -> float:
        return sum(statistics.median(figure(unit) for unit in group) for group in kinds.values())

    wall_s = per_round(lambda unit: unit.seconds) * scale
    return {
        "wall_s": wall_s,
        "throughput_Bps": per_round(lambda unit: unit.output_bytes) / wall_s,
        # Recorded, not gated: on ``serve`` the per-request median moves
        # between two modes of the grant interleaving (see README.md).
        "latency_p50_ms": per_round(lambda unit: statistics.median(unit.latencies_s))
        * scale
        * 1e3,
    }


def latency_p99_ms(units) -> float:
    """p99 over every operation of the run; recorded in the result file only.

    Host stalls of a few milliseconds move it by more than any bound the
    benchmark may set, so it is not one of the gated metrics.
    """
    return percentile([lat for unit in good_units(units) for lat in unit.latencies_s], 99.0) * 1e3


def run_units(workload, trace: bool):
    """All timed units, with the reference kernel timed before and after each.

    With ``trace``, the units of odd rounds run under the layer tracer.
    """
    from repro.telemetry import default_registry

    import layers
    import workloads

    tracer = layers.LayerTracer() if trace else None
    units, traced = [], []
    start = time.perf_counter()
    kernel_s = sample_host_speed(0.0)
    while workload.wants_more(units, time.perf_counter() - start):
        index = len(units)
        traced_unit = tracer is not None and (index // workload.round_length) % 2 == 1
        if traced_unit:
            layers.activate(tracer)
            totals_before = tracer.totals.copy()
            metrics_before = default_registry().snapshot()
        unit_start = time.perf_counter()
        try:
            unit = workload.run_unit(index)
        except Exception:  # noqa: BLE001 - a crashed unit is a failed unit
            traceback.print_exc()
            elapsed = time.perf_counter() - unit_start
            unit = workloads.Unit(elapsed, 1, 1, [elapsed], 0)
        finally:
            if traced_unit:
                layers.deactivate(tracer)
        units.append(unit)
        kernel_s += sample_host_speed(KERNEL_SHARE * unit.seconds)
        if traced_unit:
            traced.append(
                layers.unit_delta(
                    unit, totals_before, tracer.totals, metrics_before, default_registry().snapshot()
                )
            )
    return units, traced, kernel_s


def work(args: argparse.Namespace) -> int:
    """The workload process: set up, report ready, run, report the result."""
    scratch = os.environ["TMPDIR"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds, scratch)
    workload.setup()
    print(READY, flush=True)
    if args.role == "probe":
        workload.teardown()
        return 0
    units, traced, kernel_s = run_units(workload, bool(args.trace))
    try:
        final = workload.finish()
    except Exception:  # noqa: BLE001 - a crashed check is a failed check
        traceback.print_exc()
        final = workloads.Unit(0.0, 1, 1, [], 0)
    workload.teardown()
    attempted = sum(unit.attempted for unit in units) + final.attempted
    failed = sum(unit.failed for unit in units) + final.failed
    scale = host_scale(kernel_s)
    scaled = end_to_end(units, scale)
    if args.trace:
        import layers

        untraced = [
            unit.seconds
            for index, unit in enumerate(units)
            if (index // workload.round_length) % 2 == 0
        ]
        metrics = layers.layer_metrics(traced, statistics.mean(untraced))
    else:
        metrics = {
            "norm_wall_s": scaled["wall_s"],
            "norm_throughput_Bps": scaled["throughput_Bps"],
        }
    payload = {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "host_scale": scale,
        "scaled_metrics": scaled,
        "raw_metrics": end_to_end(units, 1.0),
        "units": [round(unit.seconds, 6) for unit in units],
        "kernel_s": [round(seconds, 6) for seconds in kernel_s],
        "latency_p99_ms": latency_p99_ms(units),
        "numpy": numpy.__version__,
    }
    print(RESULT + json.dumps(payload), flush=True)
    return 0


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------
def tree_rss_kb(pid: int) -> int:
    """Resident memory of ``pid`` and all its descendants, in KiB."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as children:
                    pending.extend(int(child) for child in children.read().split())
        except OSError:
            continue  # the process ended while being read
    return total


class Child:
    """One workload process; records when it reports ready and its result."""

    def __init__(self, args: argparse.Namespace, role: str, env: dict) -> None:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--role", role,
        ]
        self.started = time.perf_counter()
        self.ready_s = None
        self.result = None
        # A session of its own, so an overrun kills its pool workers too.
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            if line.startswith(READY) and self.ready_s is None:
                self.ready_s = time.perf_counter() - self.started
            elif line.startswith(RESULT):
                self.result = json.loads(line[len(RESULT) :])
            else:
                sys.stderr.write(line)

    def wait(self, deadline: float, on_tick=None) -> int:
        while self.process.poll() is None:
            if time.perf_counter() > deadline:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
                self.reader.join()
                fail(f"{self.process.args[-1]} process overran the {DEADLINE_S:.0f} s limit")
            if on_tick is not None:
                on_tick(self.process.pid)
            time.sleep(RSS_INTERVAL_S)
        self.reader.join()
        return self.process.returncode


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(args: argparse.Namespace, spec: dict) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = HERE / "out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        setup_samples = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = Child(args, "probe", env)
            if probe.wait(deadline) != 0 or probe.ready_s is None:
                fail("set-up probe failed")
            setup_samples.append(probe.ready_s)
        peak_kb = [0]
        measured = Child(args, "work", env)

        def sample(pid: int) -> None:
            peak_kb[0] = max(peak_kb[0], tree_rss_kb(pid))

        code = measured.wait(deadline, on_tick=sample)
        if code != 0 or measured.result is None or measured.ready_s is None:
            fail(f"workload process exited with code {code} and no result")
        setup_samples.append(measured.ready_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = measured.result
    metrics = dict(payload["metrics"])
    if not args.trace:
        # Set-up ran just before the measured units, so the run's host
        # scale states it at the reference speed too.
        metrics["setup_s"] = statistics.median(setup_samples) * payload["host_scale"]
        metrics["peak_rss_mb"] = peak_kb[0] / 1024.0
    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json {kind}")
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    stamped = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        unit_seconds=payload["units"],
        reference_kernel_s=payload["kernel_s"],
        scaled_metrics=payload["scaled_metrics"],
        raw_metrics=payload["raw_metrics"],
        host_scale=payload["host_scale"],
        latency_p99_ms=payload["latency_p99_ms"],
        setup_samples_s=setup_samples,
        environment={
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": payload["numpy"],
            "nproc": os.cpu_count(),
        },
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(stamped, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "launch":
        return work(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}; run from the repository root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be positive")
    return launch(args, spec)


if __name__ == "__main__":
    sys.exit(main())

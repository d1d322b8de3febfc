#!/usr/bin/env python3
"""CI benchmark gate: fail when a tracked benchmark regresses.

Compares the mean timings in a ``pytest-benchmark`` JSON export against
the committed reference timings and exits non-zero when any tracked
benchmark is slower than ``factor`` times its reference::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json \
        -k "fig11 or fig12 or ext10"
    python benchmarks/check_regression.py bench.json \
        benchmarks/reference_timings.json

The reference file maps benchmark names to reference mean seconds::

    {"bench_fig11": 5.1, "bench_fig12": 8.4, "bench_ext10": 0.9}

Reference numbers are deliberately coarse (one significant margin, not a
laptop-precise baseline): the gate exists to catch order-of-magnitude
mistakes — an accidentally quadratic loop, a serial path swallowing the
pool — not 10% scheduler noise.  The allowed factor can be widened for a
known-slow runner with ``--factor`` or ``REPRO_BENCH_FACTOR``.

Below the hard gate sits a *soft* trajectory check: with ``--history``
pointing at the rolling history (the JSONL from ``append_history.py``),
a benchmark whose
mean rose monotonically across the last three runs (history tail plus
this export) by ``--drift-factor`` (default 1.3x) overall prints a
``DRIFT WARNING`` in the job log — it never fails the gate, it makes
the slow creep that 2x would eventually catch visible per-PR instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple


def load_means(bench_json_path: str) -> Dict[str, float]:
    """Benchmark name -> mean seconds from a pytest-benchmark export."""
    with open(bench_json_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    means = {}
    for entry in document.get("benchmarks", []):
        means[entry["name"]] = float(entry["stats"]["mean"])
    return means


def check(
    current: Dict[str, float],
    reference: Dict[str, float],
    factor: float,
    allow_untracked: bool = False,
) -> int:
    """Print a comparison table; return the number of failures.

    A benchmark present in the export but absent from the reference file
    is a failure unless ``allow_untracked`` is set: a silently untracked
    benchmark is exactly how a new hot path escapes the gate.
    """
    failures = 0
    width = max(len(name) for name in {**reference, **current}) if reference or current else 4
    print(f"{'benchmark'.ljust(width)}  {'ref [s]':>9}  {'now [s]':>9}  {'ratio':>6}  verdict")
    for name in sorted(reference):
        ref = reference[name]
        if name not in current:
            print(f"{name.ljust(width)}  {ref:9.3f}  {'-':>9}  {'-':>6}  MISSING")
            failures += 1
            continue
        now = current[name]
        ratio = now / ref if ref > 0 else float("inf")
        verdict = "ok" if ratio <= factor else f"REGRESSION (> {factor:g}x)"
        if ratio > factor:
            failures += 1
        print(f"{name.ljust(width)}  {ref:9.3f}  {now:9.3f}  {ratio:6.2f}  {verdict}")
    for name in sorted(set(current) - set(reference)):
        verdict = "untracked (allowed)" if allow_untracked else "UNTRACKED"
        if not allow_untracked:
            failures += 1
        print(f"{name.ljust(width)}  {'-':>9}  {current[name]:9.3f}  {'-':>6}  {verdict}")
    untracked = sorted(set(current) - set(reference))
    if untracked and not allow_untracked:
        print(
            f"\nuntracked benchmark(s) {', '.join(untracked)}: add reference "
            "entries to benchmarks/reference_timings.json or pass --allow-untracked",
            file=sys.stderr,
        )
    return failures


def load_history_means(history_path: str) -> List[Dict[str, float]]:
    """Per-run mean maps, oldest first, from the rolling JSONL history."""
    with open(history_path, "r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [
        {name: float(value) for name, value in row.get("means", {}).items()}
        for row in rows
    ]


def drift_warnings(
    history: List[Dict[str, float]],
    current: Dict[str, float],
    drift_factor: float,
    runs: int = 3,
) -> List[Tuple[str, List[float]]]:
    """Benchmarks that rose monotonically over the last ``runs`` points.

    The series under test is the history tail plus the current export;
    a warning needs strict monotonic growth *and* an overall ratio of
    at least ``drift_factor`` — three noisy-but-flat runs stay quiet.
    """
    warnings: List[Tuple[str, List[float]]] = []
    for name in sorted(current):
        series = [row[name] for row in history if name in row]
        series = (series + [current[name]])[-runs:]
        if len(series) < runs or series[0] <= 0:
            continue
        monotonic = all(later > earlier for earlier, later in zip(series, series[1:]))
        if monotonic and series[-1] / series[0] >= drift_factor:
            warnings.append((name, series))
    return warnings


def report_drift(
    history: List[Dict[str, float]],
    current: Dict[str, float],
    drift_factor: float,
) -> None:
    warnings = drift_warnings(history, current, drift_factor)
    for name, series in warnings:
        trajectory = " -> ".join(f"{value:.3f}" for value in series)
        print(
            f"DRIFT WARNING: {name} rose monotonically over the last "
            f"{len(series)} runs ({trajectory} s, "
            f"{series[-1] / series[0]:.2f}x >= {drift_factor:g}x) — below the "
            f"hard gate, but trending the wrong way",
            file=sys.stderr,
        )
    if not warnings:
        print(f"no monotonic drift >= {drift_factor:g}x over the trailing runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="pytest-benchmark --benchmark-json output")
    parser.add_argument("reference_json", help="committed reference timings")
    parser.add_argument(
        "--factor",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_FACTOR", "2.0")),
        help="allowed slowdown vs reference (default: 2.0, env REPRO_BENCH_FACTOR)",
    )
    parser.add_argument(
        "--allow-untracked",
        action="store_true",
        help="tolerate benchmarks missing from the reference file "
        "(by default they fail the gate)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="FILE",
        help="rolling history (JSONL) for the soft monotonic-drift warning",
    )
    parser.add_argument(
        "--drift-factor",
        type=float,
        default=1.3,
        help="overall growth across three monotonic runs that triggers "
        "a DRIFT WARNING (default: 1.3; never fails the gate)",
    )
    args = parser.parse_args(argv)

    current = load_means(args.bench_json)
    with open(args.reference_json, "r", encoding="utf-8") as handle:
        reference = {name: float(value) for name, value in json.load(handle).items()}

    failures = check(current, reference, args.factor, allow_untracked=args.allow_untracked)
    if args.history is not None:
        try:
            history = load_history_means(args.history)
        except FileNotFoundError:
            print(f"(no history at {args.history}; drift check skipped)")
        else:
            report_drift(history, current, args.drift_factor)
    if failures:
        print(f"\n{failures} benchmark(s) failed the {args.factor:g}x gate", file=sys.stderr)
        return 1
    print(f"\nall {len(reference)} tracked benchmarks within {args.factor:g}x of reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

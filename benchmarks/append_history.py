#!/usr/bin/env python3
"""Append one CI run's benchmark means to a rolling history file.

CI keeps ``BENCH_history.jsonl`` alive across runs (restored from the
most recent cache entry, re-saved after appending), so the artifact
always carries the trend, not just the latest point::

    python benchmarks/append_history.py bench.json BENCH_history.jsonl \
        --sha "$GITHUB_SHA" --run-id "$GITHUB_RUN_ID"

Each line is a self-contained JSON object::

    {"sha": "abc1234...", "run_id": "99", "utc": "2026-02-03T04:05:06Z",
     "means": {"bench_fig11": 0.11, ...}}

``--render`` prints the last few rows as a table (newest last) for the
job log, so a drift is visible without downloading anything.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Dict, List


def load_means(bench_json_path: str) -> Dict[str, float]:
    """Benchmark name -> mean seconds from a pytest-benchmark export."""
    with open(bench_json_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        entry["name"]: float(entry["stats"]["mean"])
        for entry in document.get("benchmarks", [])
    }


def load_history(history_path: str) -> List[dict]:
    try:
        with open(history_path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def render(rows: List[dict], tail: int = 10) -> str:
    """The last ``tail`` rows as a fixed-width table, newest last."""
    rows = rows[-tail:]
    if not rows:
        return "(no history)"
    names = sorted({name for row in rows for name in row.get("means", {})})
    header = f"{'sha':<10} {'utc':<20}" + "".join(f" {name:>20}" for name in names)
    lines = [header]
    for row in rows:
        means = row.get("means", {})
        cells = "".join(
            f" {means[name]:>20.4f}" if name in means else f" {'-':>20}"
            for name in names
        )
        lines.append(f"{row.get('sha', '?')[:9]:<10} {row.get('utc', '?'):<20}{cells}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="pytest-benchmark --benchmark-json output")
    parser.add_argument("history", help="JSONL history file to append to")
    parser.add_argument("--sha", default="unknown", help="commit SHA for the row")
    parser.add_argument("--run-id", default="", help="CI run identifier")
    parser.add_argument(
        "--render", action="store_true", help="print the trailing history table"
    )
    args = parser.parse_args(argv)

    means = load_means(args.bench_json)
    if not means:
        print(f"no benchmarks in {args.bench_json}; nothing appended", file=sys.stderr)
        return 1
    row = {
        "sha": args.sha,
        "run_id": args.run_id,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "means": means,
    }
    history = load_history(args.history)
    history.append(row)
    with open(args.history, "w", encoding="utf-8") as handle:
        for entry in history:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {args.sha[:9]} ({len(means)} benchmarks) -> {args.history}")
    if args.render:
        print()
        print(render(history))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

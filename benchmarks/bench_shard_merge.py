"""Sharded campaign round-trip benchmark (tracked in the CI gate).

Times the full shard lifecycle on a small campaign grid: run every
shard of a 2-way split, merge the shard directories, and reassemble the
report from the merged cache.  Asserting bit-identity against the
single-host run keeps the benchmark honest — a regression that broke
the merge identity would fail here before it failed in CI's
``shard-smoke`` job.  Tracked through ``reference_timings.json`` so the
shard bookkeeping (manifests, cache absorption, metrics merging) never
becomes a tax on campaign runtime.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.campaign import (
    CAMPAIGN_WORKLOAD,
    RingSpec,
    campaign_args,
    run_campaign,
)
from repro.fpga.board import BoardBank
from repro.parallel import ShardSpec, merge_shards

_SPECS = (RingSpec("iro", 3), RingSpec("str", 8))
_KWARGS = dict(board_count=3, bank_seed=7, jitter_periods=1024, seed=5)
_ARGS = dict(
    campaign_args(list(_SPECS), jitter_periods=_KWARGS["jitter_periods"], seed=_KWARGS["seed"]),
    board_count=_KWARGS["board_count"],
    bank_seed=_KWARGS["bank_seed"],
)


def _shard_roundtrip() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dirs = []
        for index in range(2):
            directory = tmp / f"s{index}"
            CAMPAIGN_WORKLOAD.shard(_ARGS, ShardSpec(index, 2), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp / "merged")
        return CAMPAIGN_WORKLOAD.replay(merged).to_json()


def bench_shard_merge(benchmark):
    merged_json = benchmark.pedantic(_shard_roundtrip, rounds=1, iterations=1)
    bank = BoardBank.manufacture(
        board_count=_KWARGS["board_count"], seed=_KWARGS["bank_seed"]
    )
    single = run_campaign(
        list(_SPECS),
        bank=bank,
        jitter_periods=_KWARGS["jitter_periods"],
        seed=_KWARGS["seed"],
    )
    assert merged_json == single.to_json(), "merged shard report drifted from single-host"
    print()
    print(single.render())

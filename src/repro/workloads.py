"""The shardable grid workloads, by the name a shard manifest records.

Each workload is a :class:`~repro.parallel.sharding.GridWorkload`: it
declares ``grid(args)`` and ``assemble(args, results)`` once over a
JSON-able ``args`` dict.  A ``--shard`` run goes through
:meth:`~repro.parallel.sharding.GridWorkload.shard`, which records
``{"workload": name, "args": args}`` in the shard manifest; ``repro
merge`` looks that name up here and replays the grid against the merged
cache.  The table lives outside :mod:`repro.parallel` so the execution
layer never imports the workloads it runs.
"""

from __future__ import annotations

from typing import Dict

from repro.core.campaign import CAMPAIGN_WORKLOAD
from repro.experiments.ext12_differential import EXT12_WORKLOAD
from repro.parallel.sharding import GridWorkload, MergedRun, ShardError
from repro.verify.runner import VERIFY_WORKLOAD

WORKLOADS: Dict[str, GridWorkload] = {
    workload.name: workload
    for workload in (CAMPAIGN_WORKLOAD, VERIFY_WORKLOAD, EXT12_WORKLOAD)
}


def workload_of(merged: MergedRun) -> GridWorkload:
    """The registered workload a merged shard set holds; ``ShardError`` otherwise."""
    name = merged.workload.get("workload")
    if name not in WORKLOADS:
        raise ShardError(
            f"cannot reassemble {merged.out_dir}: its shard manifests name the "
            f"workload {name!r}, which is none of {', '.join(WORKLOADS)}"
        )
    return WORKLOADS[name]

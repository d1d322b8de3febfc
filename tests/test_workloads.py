"""The shardable grid workloads: one table, stable grids, loud refusals."""

import pytest

from repro.core.campaign import CAMPAIGN_WORKLOAD, RingSpec, campaign_args
from repro.experiments.ext12_differential import EXT12_WORKLOAD, ext12_args
from repro.fpga.calibration import TABLE2_TARGETS
from repro.parallel import (
    GridTask,
    ShardError,
    ShardSpec,
    grid_signature,
    merge_shards,
    run_shard,
)
from repro.verify.runner import VERIFY_WORKLOAD, verification_args
from repro.workloads import WORKLOADS, workload_of

#: Grid signatures of each workload's default grid, recorded before the
#: workloads moved onto one protocol: equal signatures mean equal task
#: kinds, specs and seeds, so existing result caches keep hitting.  The
#: campaign's was re-recorded when its grid became one task per ring
#: family (cache entries of the per-segment grid no longer hit).
PINNED_SIGNATURES = {
    "campaign": "47d3dc7942e767162962d78fa75157b65487b7cde7c7b3761f87996ac2e67602",
    "verify": "5b570e53fa1b8f953a9e57c320c767ba56c7061ca4aec2d177ee3828c61bf134",
    "EXT12": "bee538784c07e66b5ad65c1da235d7929ae31346fa7e89c48c79067eb6cbfcce",
}


def _default_args(name):
    if name == "campaign":
        # `repro campaign --shard` defaults: the Table II rings, 5 boards, bank seed 7.
        specs = [RingSpec(target.kind, target.stage_count) for target in TABLE2_TARGETS]
        return dict(campaign_args(specs), board_count=5, bank_seed=7)
    if name == "verify":
        return verification_args(None, "quick", 5, 0, None)
    return ext12_args()


def test_table_holds_the_three_workloads():
    assert WORKLOADS == {
        "campaign": CAMPAIGN_WORKLOAD,
        "verify": VERIFY_WORKLOAD,
        "EXT12": EXT12_WORKLOAD,
    }


@pytest.mark.parametrize("name", sorted(PINNED_SIGNATURES))
def test_default_grid_signature_is_pinned(name):
    tasks, _worker = WORKLOADS[name].grid(_default_args(name))
    assert grid_signature(tasks) == PINNED_SIGNATURES[name]


def _toy_worker(task):
    return task.spec["index"]


def _merged_toy_run(tmp_path, workload):
    tasks = [GridTask(kind="toy_point", spec={"index": i}, seed=i) for i in range(3)]
    run_shard(tasks, _toy_worker, ShardSpec(0, 1), tmp_path / "s0", workload=workload)
    return merge_shards([tmp_path / "s0"], tmp_path / "merged")


def test_unregistered_workload_is_refused(tmp_path):
    merged = _merged_toy_run(tmp_path, {"workload": "toy", "args": {}})
    with pytest.raises(ShardError, match="'toy'") as error:
        workload_of(merged)
    assert str(tmp_path / "merged") in str(error.value)


def test_old_manifest_format_is_refused(tmp_path):
    merged = _merged_toy_run(tmp_path, {"workload": "campaign", "specs": []})
    with pytest.raises(ShardError, match="older format") as error:
        workload_of(merged).replay(merged)
    assert str(tmp_path / "merged") in str(error.value)

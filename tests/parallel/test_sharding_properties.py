"""Property-based tests for the sharding partition and merge identity."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import (
    GridTask,
    ShardSpec,
    merge_shards,
    run_grid,
    run_shard,
    spawn_seed_subset,
    spawn_seeds,
)

task_counts = st.integers(min_value=0, max_value=64)
shard_counts = st.integers(min_value=1, max_value=12)


def _tasks(count, seed=0):
    seeds = spawn_seeds(seed, count) if count else []
    return [
        GridTask(kind="prop_point", spec={"index": index}, seed=seeds[index])
        for index in range(count)
    ]


def _worker(task):
    return {"index": task.spec["index"], "value": int(task.seed or 0) % 7919}


class TestPartitionProperties:
    @given(task_counts, shard_counts)
    def test_shards_are_disjoint_and_cover_the_grid(self, task_count, shard_count):
        owned = [
            ShardSpec(index, shard_count).indices(task_count)
            for index in range(shard_count)
        ]
        flat = [index for shard in owned for index in shard]
        # Disjoint: no index owned twice.  Cover: every index owned once.
        assert sorted(flat) == list(range(task_count))

    @given(task_counts, shard_counts)
    def test_ownership_is_a_pure_function_of_the_address(self, task_count, shard_count):
        # Recomputing any shard's indices — in any order, any number of
        # times — never changes them: ownership depends only on
        # (index, count, task_count), never on execution history.
        for index in reversed(range(shard_count)):
            spec = ShardSpec(index, shard_count)
            assert spec.indices(task_count) == spec.indices(task_count)
            assert spec.indices(task_count) == [
                grid_index
                for grid_index in range(task_count)
                if grid_index % shard_count == index
            ]

    @given(task_counts, shard_counts, st.integers(0, 2**31 - 1))
    def test_seed_fanout_is_partition_invariant(self, task_count, shard_count, root):
        # The seed of grid point i is the same whether derived for the
        # whole grid or for any shard's subset — the property that makes
        # shard outputs mergeable bit-for-bit.
        whole = spawn_seeds(root, task_count) if task_count else []
        for index in range(shard_count):
            owned = ShardSpec(index, shard_count).indices(task_count)
            subset = spawn_seed_subset(root, task_count, owned) if owned else []
            assert subset == [whole[i] for i in owned]


class TestMergeIdentityProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_merged_results_bit_identical_to_serial(
        self, task_count, shard_count, rng
    ):
        tasks = _tasks(task_count)
        serial = run_grid(tasks, _worker, jobs=1)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            dirs = []
            for index in range(shard_count):
                directory = tmp / f"s{index}"
                run_shard(tasks, _worker, ShardSpec(index, shard_count), directory)
                dirs.append(directory)
            # Renumbering stability: the merge accepts shards in any order.
            rng.shuffle(dirs)
            merged = merge_shards(dirs, tmp / "merged")
            assert merged.entries_absorbed == task_count
            replayed = run_grid(tasks, _worker, jobs=1, cache=merged.cache)
        assert replayed == serial

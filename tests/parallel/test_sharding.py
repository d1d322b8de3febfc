"""Sharded grid execution: partitioning, crash safety, merge identity."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.parallel import (
    GridStats,
    GridTask,
    ResultCache,
    ShardError,
    ShardManifest,
    ShardSpec,
    grid_signature,
    merge_shards,
    run_grid,
    run_shard,
    spawn_seeds,
)
from repro.parallel.sharding import CACHE_DIR_NAME, MANIFEST_NAME, METRICS_NAME


def _toy_tasks(count=10, seed=0):
    seeds = spawn_seeds(seed, count)
    return [
        GridTask(kind="toy_point", spec={"index": index}, seed=seeds[index])
        for index in range(count)
    ]


def _toy_worker(task):
    return {"index": task.spec["index"], "value": int(task.seed or 0) % 997}


class TestShardSpec:
    def test_valid_addresses(self):
        assert ShardSpec(0, 1).render() == "0/1"
        assert ShardSpec.parse("3/4") == ShardSpec(3, 4)
        assert ShardSpec.parse(" 0/2 ") == ShardSpec(0, 2)

    @pytest.mark.parametrize(
        "index,count,fragment",
        [
            (3, 2, "out of range"),
            (0, 0, "at least 1"),
            (0, -1, "at least 1"),
            (-1, 2, "non-negative"),
        ],
    )
    def test_invalid_addresses_actionable(self, index, count, fragment):
        with pytest.raises(ShardError, match=fragment):
            ShardSpec(index, count)

    @pytest.mark.parametrize("text", ["1", "a/b", "1/2/3", "", "1/"])
    def test_malformed_parse(self, text):
        with pytest.raises(ShardError, match="malformed shard address"):
            ShardSpec.parse(text)

    def test_round_robin_partition(self):
        assert ShardSpec(1, 3).indices(10) == [1, 4, 7]
        assert ShardSpec(2, 3).indices(10) == [2, 5, 8]
        # An over-wide partition simply leaves trailing shards empty.
        assert ShardSpec(7, 8).indices(3) == []


class TestGridSignature:
    def test_stable_and_content_sensitive(self):
        tasks = _toy_tasks()
        assert grid_signature(tasks) == grid_signature(list(tasks))
        assert grid_signature(tasks) != grid_signature(_toy_tasks(seed=1))
        assert grid_signature(tasks) != grid_signature(tasks[:-1])
        assert grid_signature(tasks) != grid_signature(tasks, version="2.0")


class TestRunShard:
    def test_shard_directory_layout(self, tmp_path):
        run = run_shard(
            _toy_tasks(), _toy_worker, ShardSpec(0, 3), tmp_path / "s0",
            workload={"workload": "toy"},
        )
        assert (tmp_path / "s0" / MANIFEST_NAME).exists()
        assert (tmp_path / "s0" / METRICS_NAME).exists()
        assert (tmp_path / "s0" / CACHE_DIR_NAME).is_dir()
        assert run.manifest.completed
        assert run.manifest.workload == {"workload": "toy"}
        assert run.indices == [0, 3, 6, 9]
        assert [r["index"] for r in run.results] == [0, 3, 6, 9]

    def test_rerun_resumes_from_cache(self, tmp_path):
        first = GridStats()
        run_shard(
            _toy_tasks(), _toy_worker, ShardSpec(1, 3), tmp_path / "s1", stats=first
        )
        assert (first.cache_hits, first.executed) == (0, 3)
        again = GridStats()
        rerun = run_shard(
            _toy_tasks(), _toy_worker, ShardSpec(1, 3), tmp_path / "s1", stats=again
        )
        assert (again.cache_hits, again.executed) == (3, 0)
        assert [r["index"] for r in rerun.results] == [1, 4, 7]

    def test_rerun_refuses_different_grid(self, tmp_path):
        run_shard(_toy_tasks(), _toy_worker, ShardSpec(0, 2), tmp_path / "s0")
        with pytest.raises(ShardError, match="different grid"):
            run_shard(
                _toy_tasks(seed=99), _toy_worker, ShardSpec(0, 2), tmp_path / "s0"
            )

    def test_rerun_refuses_different_address(self, tmp_path):
        run_shard(_toy_tasks(), _toy_worker, ShardSpec(0, 2), tmp_path / "s0")
        with pytest.raises(ShardError, match="one directory per shard"):
            run_shard(_toy_tasks(), _toy_worker, ShardSpec(1, 2), tmp_path / "s0")


class TestMergeValidation:
    def _run_shards(self, tmp_path, count, skip=()):
        dirs = []
        for index in range(count):
            if index in skip:
                continue
            directory = tmp_path / f"s{index}"
            run_shard(_toy_tasks(), _toy_worker, ShardSpec(index, count), directory)
            dirs.append(directory)
        return dirs

    def test_empty_set(self, tmp_path):
        with pytest.raises(ShardError, match="nothing to merge"):
            merge_shards([], tmp_path / "m")

    def test_not_a_shard_directory(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(ShardError, match="not a shard directory"):
            merge_shards([tmp_path / "junk"], tmp_path / "m")

    def test_missing_shard(self, tmp_path):
        dirs = self._run_shards(tmp_path, 3, skip={2})
        with pytest.raises(ShardError, match=r"shard\(s\) 2 of 3 missing"):
            merge_shards(dirs, tmp_path / "m")

    def test_overlapping_shards(self, tmp_path):
        dirs = self._run_shards(tmp_path, 2)
        with pytest.raises(ShardError, match="overlapping shards"):
            merge_shards([dirs[0], dirs[0], dirs[1]], tmp_path / "m")

    def test_mixed_grids(self, tmp_path):
        directory_a = tmp_path / "a"
        directory_b = tmp_path / "b"
        run_shard(_toy_tasks(), _toy_worker, ShardSpec(0, 2), directory_a)
        run_shard(_toy_tasks(seed=9), _toy_worker, ShardSpec(1, 2), directory_b)
        with pytest.raises(ShardError, match="disagree on the grid"):
            merge_shards([directory_a, directory_b], tmp_path / "m")

    def test_mixed_partition_widths(self, tmp_path):
        directory_a = tmp_path / "a"
        directory_b = tmp_path / "b"
        run_shard(_toy_tasks(), _toy_worker, ShardSpec(0, 2), directory_a)
        run_shard(_toy_tasks(), _toy_worker, ShardSpec(1, 3), directory_b)
        with pytest.raises(ShardError, match="partition width"):
            merge_shards([directory_a, directory_b], tmp_path / "m")

    def test_incomplete_shard(self, tmp_path):
        dirs = self._run_shards(tmp_path, 2)
        manifest = ShardManifest.load(dirs[1])
        dataclasses.replace(manifest, completed=False).write(dirs[1])
        with pytest.raises(ShardError, match="incomplete.*resume"):
            merge_shards(dirs, tmp_path / "m")


class TestMergeIdentity:
    @pytest.mark.parametrize("shard_count", [2, 3, 5])
    def test_replay_against_merged_cache_is_serial(self, tmp_path, shard_count):
        tasks = _toy_tasks(11)
        serial = run_grid(tasks, _toy_worker, jobs=1)
        dirs = []
        for index in range(shard_count):
            directory = tmp_path / f"s{index}"
            run_shard(tasks, _toy_worker, ShardSpec(index, shard_count), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        assert merged.entries_absorbed == len(tasks)
        stats = GridStats()
        replayed = run_grid(tasks, _toy_worker, jobs=1, cache=merged.cache, stats=stats)
        assert replayed == serial
        assert (stats.cache_hits, stats.executed) == (len(tasks), 0)

    def test_merged_metrics_sum_shards(self, tmp_path):
        tasks = _toy_tasks(6)
        dirs = []
        for index in range(2):
            directory = tmp_path / f"s{index}"
            run_shard(tasks, _toy_worker, ShardSpec(index, 2), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        counters = merged.metrics.counters
        assert counters.get("repro.parallel.tasks") == len(tasks)
        assert counters.get("repro.parallel.grids") == 2

    def test_merged_directory_is_itself_a_shard_dir(self, tmp_path):
        dirs = []
        for index in range(2):
            directory = tmp_path / f"s{index}"
            run_shard(
                _toy_tasks(), _toy_worker, ShardSpec(index, 2), directory,
                workload={"workload": "toy"},
            )
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        manifest = ShardManifest.load(merged.out_dir)
        assert manifest.completed
        assert (manifest.shard_index, manifest.shard_count) == (0, 1)
        assert manifest.workload == {"workload": "toy"}


# ----------------------------------------------------------------------
# Multiprocess stress: concurrent shard writers racing on shared state.
# ----------------------------------------------------------------------
def _run_own_shard(tmp_root, index, count, barrier):
    barrier.wait()
    run_shard(
        _toy_tasks(16), _toy_worker, ShardSpec(index, count), tmp_root / f"s{index}"
    )


def _run_same_shard(tmp_root, _index, count, barrier):
    barrier.wait()
    run_shard(_toy_tasks(16), _toy_worker, ShardSpec(0, count), tmp_root / "s0")


def _run_shared_cache_grid(root, _index, _count, barrier):
    barrier.wait()
    cache = ResultCache(root=root, version="1.0.0")
    run_grid(_toy_tasks(16), _toy_worker, jobs=1, cache=cache)


class TestConcurrentShardWriters:
    """N processes racing on shard directories and a shared cache."""

    WORKERS = 4

    def _spawn(self, target, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        processes = [
            ctx.Process(target=target, args=(tmp_path, index, self.WORKERS, barrier))
            for index in range(self.WORKERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert all(process.exitcode == 0 for process in processes)

    def test_concurrent_distinct_shards_merge_bit_identical(self, tmp_path):
        self._spawn(_run_own_shard, tmp_path)
        merged = merge_shards(
            [tmp_path / f"s{index}" for index in range(self.WORKERS)],
            tmp_path / "merged",
        )
        tasks = _toy_tasks(16)
        assert merged.entries_absorbed == len(tasks)
        replayed = run_grid(tasks, _toy_worker, jobs=1, cache=merged.cache)
        assert replayed == run_grid(tasks, _toy_worker, jobs=1)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_writers_same_shard_directory(self, tmp_path):
        # All workers legitimately re-run shard 0/4 into the same
        # directory (the resume path): no torn manifest, no lost
        # entries, and the directory still merges.
        self._spawn(_run_same_shard, tmp_path)
        manifest = ShardManifest.load(tmp_path / "s0")
        assert manifest.completed
        assert manifest.shard_task_count == 4
        run = run_shard(_toy_tasks(16), _toy_worker, ShardSpec(0, 4), tmp_path / "s0")
        assert [r["index"] for r in run.results] == [0, 4, 8, 12]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_grids_share_one_cache_directory(self, tmp_path):
        root = tmp_path / "cache"
        self._spawn(_run_shared_cache_grid, root)
        cache = ResultCache(root=root, version="1.0.0")
        assert cache.stats().entry_count == 16
        stats = GridStats()
        replayed = run_grid(
            _toy_tasks(16), _toy_worker, jobs=1, cache=cache, stats=stats
        )
        assert replayed == run_grid(_toy_tasks(16), _toy_worker, jobs=1)
        assert (stats.cache_hits, stats.executed) == (16, 0)
        assert not list(root.rglob("*.tmp"))


class TestCampaignShardIdentity:
    """The acceptance bar: merged shard campaigns == single host, bit for bit."""

    SPECS = None  # built lazily to keep import costs out of collection

    def _specs(self):
        from repro.core.campaign import RingSpec

        return [RingSpec("iro", 3), RingSpec("str", 8)]

    def _single_host_json(self, backend, periods):
        from repro.core.campaign import run_campaign
        from repro.fpga.board import BoardBank

        bank = BoardBank.manufacture(board_count=3, seed=7)
        return run_campaign(
            self._specs(), bank=bank, jitter_periods=periods, seed=5, backend=backend
        ).to_json()

    @pytest.mark.parametrize(
        "backend, periods", [("batch", 1024), ("event", 256)], ids=["batch", "event"]
    )
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_merged_campaign_bit_identical(self, tmp_path, shard_count, backend, periods):
        from repro.core.campaign import CAMPAIGN_WORKLOAD, campaign_args

        args = dict(
            campaign_args(self._specs(), jitter_periods=periods, seed=5, backend=backend),
            board_count=3,
            bank_seed=7,
        )
        dirs = []
        for index in range(shard_count):
            directory = tmp_path / f"s{index}"
            CAMPAIGN_WORKLOAD.shard(args, ShardSpec(index, shard_count), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        assert merged.workload["workload"] == "campaign"
        stats = GridStats()
        assembled = CAMPAIGN_WORKLOAD.replay(merged, stats=stats)
        assert assembled.to_json() == self._single_host_json(backend, periods)
        assert stats.executed == 0 and stats.cache_hits == stats.total

    def test_campaign_resume_surfaces_cache_hits(self, tmp_path):
        """Regression: a re-run with a warm cache must visibly skip
        finished grid points instead of silently recomputing."""
        from repro.core.campaign import run_campaign
        from repro.fpga.board import BoardBank

        cache = ResultCache(root=tmp_path / "cache")
        bank = BoardBank.manufacture(board_count=2, seed=7)
        cold = GridStats()
        first = run_campaign(
            [s for s in self._specs()][:1],
            bank=bank, jitter_periods=1024, seed=5, cache=cache, stats=cold,
        )
        assert cold.executed == cold.total > 0 and cold.cache_hits == 0
        warm = GridStats()
        second = run_campaign(
            [s for s in self._specs()][:1],
            bank=bank, jitter_periods=1024, seed=5, cache=cache, stats=warm,
        )
        assert warm.cache_hits == warm.total > 0 and warm.executed == 0
        assert second.to_json() == first.to_json()
        assert "cached" in warm.render() and "executed" in warm.render()


class TestVerificationShardIdentity:
    def test_sharded_verify_matches_single_host(self, tmp_path):
        from repro.verify.runner import (
            VERIFY_WORKLOAD,
            run_verification,
            verification_args,
        )

        claims = ["EXT12-VAR"]
        args = verification_args(claims, "quick", 3, 0, None)
        dirs = []
        for index in range(2):
            directory = tmp_path / f"s{index}"
            VERIFY_WORKLOAD.shard(args, ShardSpec(index, 2), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        assembled = VERIFY_WORKLOAD.replay(merged)
        direct = run_verification(claims, tier="quick", seeds=3)
        assert assembled.to_dict() == direct.to_dict()
        assert assembled.passed

"""EXT12 — differential vs counter jitter measurement under ripple."""

import pytest

from repro.experiments.ext12_differential import EXT12_WORKLOAD, ext12_args, run
from repro.experiments.registry import experiment_title, get_experiment
from repro.parallel import GridStats, ShardSpec, merge_shards

#: Shrunk-but-decisive configuration reused across the tests.
SHRUNK = dict(repeats=2, window_count=160, periods_per_window=64, seed=41)


class TestExt12:
    def test_registered(self):
        assert get_experiment("EXT12") is run
        assert "differential" in experiment_title("EXT12").lower()

    def test_checks_pass_shrunk(self):
        result = run(**SHRUNK)
        assert result.experiment_id == "EXT12"
        assert result.all_checks_pass, result.checks
        # One row per swept amplitude, quiet first.
        assert len(result.rows) == 3
        assert result.rows[0][-1] == "both track"
        assert result.rows[-1][-1] == "counter inflated, differential immune"

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="repeats must be positive"):
            run(repeats=0)

    def test_sharded_run_bit_identical_to_direct(self, tmp_path):
        dirs = []
        for index in range(3):
            directory = tmp_path / f"s{index}"
            EXT12_WORKLOAD.shard(ext12_args(**SHRUNK), ShardSpec(index, 3), directory)
            dirs.append(directory)
        merged = merge_shards(dirs, tmp_path / "merged")
        assert merged.workload["workload"] == "EXT12"
        stats = GridStats()
        assembled = EXT12_WORKLOAD.replay(merged, stats=stats)
        assert assembled.to_json() == run(**SHRUNK).to_json()
        assert stats.executed == 0 and stats.cache_hits == stats.total > 0

    def test_assemble_refuses_foreign_workload(self, tmp_path):
        from repro.verify.runner import VERIFY_WORKLOAD, verification_args

        VERIFY_WORKLOAD.shard(
            verification_args(["EXT12-VAR"], "quick", 1, 0, None),
            ShardSpec(0, 1),
            tmp_path / "v0",
        )
        merged = merge_shards([tmp_path / "v0"], tmp_path / "merged")
        with pytest.raises(ValueError, match="not an EXT12 grid"):
            EXT12_WORKLOAD.replay(merged)

    def test_claims_registered_and_quick_tier_passes(self):
        from repro.verify.claims import get_claim

        for claim_id in ("EXT12", "EXT12-VAR"):
            claim = get_claim(claim_id)
            outcome = claim.run(seed=0, params=claim.params_for("quick"))
            assert outcome.passed, outcome.detail

"""Experiment modules: registry behaviour and the cheap reproductions.

The heavyweight experiments (FIG9-FIG12) run in full inside the
benchmark harness; here they run shrunk so the whole suite stays quick,
and only their structural checks are asserted.  EXT1 runs at its
defaults: shrunk, its checks would sit near their tolerances.
"""

import hashlib

import pytest

from repro.experiments import EXPERIMENT_IDS, get_experiment, run_experiment
from repro.experiments.base import ExperimentResult


class TestRegistry:
    def test_all_ids_present(self):
        expected = {
            "FIG4",
            "FIG5",
            "FIG7",
            "FIG8",
            "TAB1",
            "TAB2",
            "FIG9",
            "FIG10",
            "FIG11",
            "FIG12",
            "SEC5A",
            "EXT1",
            "EXT2",
            "EXT3",
            "EXT4",
            "EXT5",
            "EXT6",
            "EXT7",
            "EXT8",
            "EXT9",
            "EXT10",
            "EXT11",
            "EXT12",
            "ABL1",
            "ABL2",
            "ABL3",
            "ABL4",
            "ABL5",
        }
        assert set(EXPERIMENT_IDS) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("fig4") is get_experiment("FIG4")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("FIG99")

    def test_experiment_title(self):
        from repro.experiments.registry import experiment_title

        assert experiment_title("FIG4") == "token and bubble propagation (paper Fig. 4)"
        # case-insensitive, id prefix stripped, no trailing period
        title = experiment_title("ext10")
        assert title.startswith("fault-injection campaign")
        assert "EXT10" not in title
        assert not title.endswith(".")


class TestResultContainer:
    def test_format_table(self):
        result = ExperimentResult(
            experiment_id="X",
            title="t",
            columns=("a", "b"),
            rows=[(1, 2.5), ("x", 3.25)],
        )
        table = result.format_table()
        assert "a" in table and "3.25" in table

    def test_render_includes_checks_and_notes(self):
        result = ExperimentResult(
            experiment_id="X",
            title="t",
            columns=("a",),
            rows=[(1,)],
            checks={"ok": True, "bad": False},
            notes="careful",
        )
        text = result.render()
        assert "check ok: PASS" in text
        assert "check bad: FAIL" in text
        assert "careful" in text
        assert not result.all_checks_pass
        assert result.failed_checks == ["bad"]


class TestCheapExperiments:
    @pytest.mark.parametrize(
        "experiment_id",
        ["FIG4", "FIG7", "FIG8", "TAB1", "TAB2", "ABL1", "ABL2", "ABL4", "ABL5", "EXT6"],
    )
    def test_checks_pass(self, experiment_id):
        result = run_experiment(experiment_id)
        assert result.all_checks_pass, result.failed_checks

    def test_fig4_rows_recorded(self):
        result = run_experiment("FIG4", steps=6)
        assert len(result.rows) == 6

    def test_tab1_has_eight_rings(self):
        assert len(run_experiment("TAB1").rows) == 8

    def test_tab2_has_four_rings(self):
        assert len(run_experiment("TAB2").rows) == 4

    def test_ext1_checks_at_defaults(self):
        # At 256 periods the IRO's response to the 0.2 % ripple already
        # sits halfway to the responses_match_supply_weights tolerance
        # (0.61 against 0.69 +/- 0.15); at the default 2048 it is 0.69.
        result = run_experiment("EXT1")
        assert set(result.checks) == {
            "clean_trngs_pass_battery",
            "ripple_inflates_apparent_jitter",
            "str_response_lower_than_iro",
            "responses_match_supply_weights",
            "deterministic_jitter_carries_no_entropy",
        }
        assert result.all_checks_pass, result.failed_checks
        assert len(result.rows) == 4


class TestShrunkExperiments:
    def test_fig5(self):
        result = run_experiment("FIG5", periods=128)
        assert result.all_checks_pass, result.failed_checks

    def test_fig9(self):
        result = run_experiment("FIG9", period_count=1024)
        assert result.all_checks_pass, result.failed_checks

    def test_fig11(self):
        result = run_experiment("FIG11", lengths=(3, 9, 25, 60), period_count=1200)
        assert result.all_checks_pass, result.failed_checks

    def test_fig12(self):
        result = run_experiment("FIG12", lengths=(4, 16, 48), period_count=800)
        assert result.all_checks_pass, result.failed_checks

    def test_sec5a(self):
        result = run_experiment(
            "SEC5A",
            balanced_lengths=(4, 16, 48),
            token_counts_32=(10, 16, 20),
            period_count=128,
        )
        assert result.all_checks_pass, result.failed_checks

    def test_ext2(self):
        result = run_experiment("EXT2", board_count=8)
        assert result.all_checks_pass, result.failed_checks

    def test_ext3(self):
        result = run_experiment("EXT3", period_count=3072)
        assert result.all_checks_pass, result.failed_checks

    def test_ext5(self):
        result = run_experiment("EXT5", restarts=60, period_count=32)
        assert result.all_checks_pass, result.failed_checks

    def test_ext8(self):
        result = run_experiment("EXT8", period_count=1536)
        assert result.all_checks_pass, result.failed_checks

    def test_ext9(self):
        # Full default bit count: the battery verdicts on the aggregated
        # designs are marginal below ~30k bits.
        result = run_experiment("EXT9")
        assert result.all_checks_pass, result.failed_checks

    def test_ext7(self):
        result = run_experiment("EXT7", board_count=5, beat_count=160, battery_bits=600)
        assert result.all_checks_pass, result.failed_checks

    def test_abl3(self):
        result = run_experiment("ABL3", board_count=24)
        assert result.all_checks_pass, result.failed_checks

    def test_ext11(self):
        result = run_experiment("EXT11", devices=128)
        assert result.all_checks_pass, result.failed_checks
        metrics = [row[0] for row in result.rows]
        assert "inter-device HD (aligned)" in metrics
        assert "authentication EER" in metrics

    def test_ext10(self):
        result = run_experiment("EXT10", severities=(0.5, 1.0))
        assert result.all_checks_pass, result.failed_checks
        # one row per fault kind x severity
        assert len(result.rows) == 10
        # every fault kind detected at its highest severity
        max_rows = [row for row in result.rows if row[1] == "1.00"]
        assert len(max_rows) == 5
        assert all(row[2] == "yes" for row in max_rows)


class TestPinnedRows:
    """Rows of the experiments that run their rings through one
    ``simulate_many`` call, pinned by the SHA-256 of their JSON as they
    were when each ring ran on its own kernel call."""

    @pytest.mark.parametrize(
        "experiment_id, digest",
        [
            ("SEC5A", "997457d6606b7eccc49dc82b7cb07166a16c26b3183acb04b1b832b95557967a"),
            ("FIG9", "cb00fdcf29269a9a65445d9023de416d4c59f3991708bbad679fc49c3dbc05dc"),
            ("EXT5", "253126289d4488608c8192ebe98293f61d4c053a4d51a05e03a48181388419b3"),
            ("ABL1", "10ba4a985e03edbb0e365acedc407ab66003c5def5a37bac60510aa0a0016933"),
        ],
    )
    def test_default_rows_unchanged(self, experiment_id, digest):
        result = run_experiment(experiment_id)
        assert result.all_checks_pass, result.failed_checks
        assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest


class TestSerialization:
    def test_json_round_trip(self):
        from repro.experiments.base import ExperimentResult

        result = run_experiment("FIG4")
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.experiment_id == result.experiment_id
        assert clone.checks == result.checks
        assert [tuple(r) for r in clone.rows] == [tuple(r) for r in result.rows]

    def test_numpy_values_serializable(self):
        result = run_experiment("TAB1")
        document = result.to_json()
        assert "delta F" in document

    def test_cli_json_flag(self, capsys):
        import json

        from repro.cli import main

        assert main(["run", "FIG7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "FIG7"

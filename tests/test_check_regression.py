"""The benchmark regression gate script (``benchmarks/check_regression.py``).

Loaded by file path — ``benchmarks/`` is a script directory, not a
package.  The key behaviour under test is the untracked-benchmark rule:
an export entry with no reference must fail the gate loudly instead of
being waved through as informational.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def write_bench_json(path, means):
    document = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}} for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(document))


def write_reference(path, reference):
    path.write_text(json.dumps(reference))


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "bench.json", tmp_path / "reference.json"


class TestCheck:
    def test_within_factor_passes(self, capsys):
        failures = check_regression.check(
            {"bench_a": 1.5}, {"bench_a": 1.0}, factor=2.0
        )
        assert failures == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_fails(self, capsys):
        failures = check_regression.check(
            {"bench_a": 2.5}, {"bench_a": 1.0}, factor=2.0
        )
        assert failures == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_benchmark_fails(self, capsys):
        failures = check_regression.check({}, {"bench_a": 1.0}, factor=2.0)
        assert failures == 1
        assert "MISSING" in capsys.readouterr().out

    def test_untracked_benchmark_fails(self, capsys):
        # The bug this pins down: an export entry with no reference used
        # to print "untracked" and exit 0, so new benchmarks silently
        # escaped the gate until someone remembered to register them.
        failures = check_regression.check(
            {"bench_a": 0.5, "bench_new": 0.1}, {"bench_a": 1.0}, factor=2.0
        )
        assert failures == 1
        captured = capsys.readouterr()
        assert "UNTRACKED" in captured.out
        assert "bench_new" in captured.err

    def test_untracked_benchmark_allowed_when_opted_in(self, capsys):
        failures = check_regression.check(
            {"bench_a": 0.5, "bench_new": 0.1},
            {"bench_a": 1.0},
            factor=2.0,
            allow_untracked=True,
        )
        assert failures == 0
        assert "untracked (allowed)" in capsys.readouterr().out


class TestMain:
    def test_exit_zero_when_all_tracked_and_fast(self, paths):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 0.5})
        write_reference(reference, {"bench_a": 1.0})
        assert check_regression.main([str(bench), str(reference)]) == 0

    def test_exit_nonzero_on_untracked(self, paths):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 0.5, "bench_new": 0.1})
        write_reference(reference, {"bench_a": 1.0})
        assert check_regression.main([str(bench), str(reference)]) == 1

    def test_allow_untracked_flag(self, paths):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 0.5, "bench_new": 0.1})
        write_reference(reference, {"bench_a": 1.0})
        assert (
            check_regression.main([str(bench), str(reference), "--allow-untracked"])
            == 0
        )

    def test_factor_flag_widens_gate(self, paths):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 3.0})
        write_reference(reference, {"bench_a": 1.0})
        assert check_regression.main([str(bench), str(reference)]) == 1
        assert (
            check_regression.main([str(bench), str(reference), "--factor", "4.0"]) == 0
        )

    def test_every_committed_reference_name_is_a_real_benchmark(self):
        # Guards the reference file against typos: every tracked name
        # must correspond to a bench_* file in benchmarks/.
        reference = json.loads(
            (_SCRIPT.parent / "reference_timings.json").read_text()
        )
        stems = {path.stem for path in _SCRIPT.parent.glob("bench_*.py")}
        for name in reference:
            assert any(
                stem == name or stem.startswith(name + "_") for stem in stems
            ), f"reference entry {name!r} matches no benchmarks/bench_*.py"


def history_means(*means_maps):
    """Parsed per-run mean maps (what drift_warnings consumes)."""
    return list(means_maps)


class TestLoadHistoryMeans:
    def test_reads_the_rolling_jsonl(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"sha": s, "means": {"bench_a": m}})
                for s, m in (("one", 1.0), ("two", 1.1))
            )
            + "\n"
        )
        assert check_regression.load_history_means(str(path)) == [
            {"bench_a": 1.0},
            {"bench_a": 1.1},
        ]

    def test_blank_lines_and_missing_means_tolerated(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"sha": "x"}\n\n{"means": {"bench_a": 3.0}}\n')
        assert check_regression.load_history_means(str(path)) == [
            {},
            {"bench_a": 3.0},
        ]


class TestDriftWarnings:
    def test_monotonic_growth_past_factor_warns(self):
        warnings = check_regression.drift_warnings(
            history_means({"bench_a": 1.0}, {"bench_a": 1.2}),
            {"bench_a": 1.4},
            drift_factor=1.3,
        )
        assert warnings == [("bench_a", [1.0, 1.2, 1.4])]

    def test_growth_below_factor_stays_quiet(self):
        assert (
            check_regression.drift_warnings(
                history_means({"bench_a": 1.0}, {"bench_a": 1.05}),
                {"bench_a": 1.1},
                drift_factor=1.3,
            )
            == []
        )

    def test_non_monotonic_series_stays_quiet(self):
        # A dip in the middle breaks the trend even when the overall
        # ratio clears the factor: noise, not creep.
        assert (
            check_regression.drift_warnings(
                history_means({"bench_a": 1.0}, {"bench_a": 0.9}),
                {"bench_a": 1.5},
                drift_factor=1.3,
            )
            == []
        )

    def test_short_history_is_skipped(self):
        assert (
            check_regression.drift_warnings(
                history_means({"bench_a": 1.0}), {"bench_a": 2.0}, drift_factor=1.3
            )
            == []
        )

    def test_only_the_trailing_runs_count(self):
        # Ancient slow runs must not mask a fresh monotonic climb.
        warnings = check_regression.drift_warnings(
            history_means(
                {"bench_a": 9.0}, {"bench_a": 1.0}, {"bench_a": 1.2}
            ),
            {"bench_a": 1.4},
            drift_factor=1.3,
        )
        assert warnings == [("bench_a", [1.0, 1.2, 1.4])]

    def test_report_prints_warning_to_stderr(self, capsys):
        check_regression.report_drift(
            history_means({"bench_a": 1.0}, {"bench_a": 1.2}),
            {"bench_a": 1.4},
            drift_factor=1.3,
        )
        captured = capsys.readouterr()
        assert "DRIFT WARNING" in captured.err
        assert "bench_a" in captured.err
        assert "1.40x" in captured.err

    def test_report_prints_all_clear_line(self, capsys):
        check_regression.report_drift([], {"bench_a": 1.0}, drift_factor=1.3)
        captured = capsys.readouterr()
        assert "no monotonic drift" in captured.out
        assert captured.err == ""

    def test_main_history_flag_warns_but_never_fails(self, paths, tmp_path, capsys):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 1.4})
        write_reference(reference, {"bench_a": 1.0})
        history = tmp_path / "history.jsonl"
        history.write_text(
            json.dumps({"means": {"bench_a": 1.0}})
            + "\n"
            + json.dumps({"means": {"bench_a": 1.2}})
            + "\n"
        )
        assert (
            check_regression.main(
                [str(bench), str(reference), "--history", str(history)]
            )
            == 0
        )
        assert "DRIFT WARNING" in capsys.readouterr().err

    def test_main_missing_history_skips_gracefully(self, paths, tmp_path, capsys):
        bench, reference = paths
        write_bench_json(bench, {"bench_a": 0.5})
        write_reference(reference, {"bench_a": 1.0})
        missing = tmp_path / "nope.jsonl"
        assert (
            check_regression.main(
                [str(bench), str(reference), "--history", str(missing)]
            )
            == 0
        )
        assert "drift check skipped" in capsys.readouterr().out


_APPEND = _SCRIPT.parent / "append_history.py"
_append_spec = importlib.util.spec_from_file_location("append_history", _APPEND)
append_history = importlib.util.module_from_spec(_append_spec)
_append_spec.loader.exec_module(append_history)


class TestAppendHistory:
    def test_main_appends_a_row(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        write_bench_json(bench, {"bench_a": 0.25})
        history = tmp_path / "history.jsonl"
        assert append_history.main([str(bench), str(history), "--sha", "abc123"]) == 0
        assert append_history.main([str(bench), str(history), "--sha", "def456"]) == 0
        rows = [json.loads(line) for line in history.read_text().splitlines()]
        assert [row["sha"] for row in rows] == ["abc123", "def456"]
        assert rows[-1]["means"] == {"bench_a": 0.25}
        assert check_regression.load_history_means(str(history)) == [
            {"bench_a": 0.25},
            {"bench_a": 0.25},
        ]
        assert "appended abc123" in capsys.readouterr().out

"""Reporting layer: ascii plots and markdown reports."""

import numpy as np
import pytest

from repro.experiments.base import ExperimentResult
from repro.reporting.ascii_plot import AsciiPlot
from repro.reporting.markdown import (
    render_markdown_report,
    render_result_markdown,
    write_markdown_report,
)


class TestAsciiPlot:
    def test_renders_axes_and_legend(self):
        plot = AsciiPlot(width=32, height=8, title="t", x_label="x", y_label="y")
        plot.add_series("data", [0, 1, 2], [0, 1, 4])
        text = plot.render()
        assert "t" in text
        assert "o = data" in text
        assert "x: x" in text

    def test_extremes_land_on_canvas_corners(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("d", [0.0, 10.0], [0.0, 5.0])
        lines = plot.render().splitlines()
        canvas = [line.split("|", 1)[1] for line in lines if "|" in line]
        assert canvas[0].rstrip().endswith("o")  # max point top-right
        assert canvas[-1].lstrip().startswith("o")  # min point bottom-left

    def test_multiple_series_distinct_glyphs(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("a", [0, 1], [0, 1])
        plot.add_series("b", [0, 1], [1, 0])
        text = plot.render()
        assert "o = a" in text and "x = b" in text

    def test_constant_series_does_not_crash(self):
        plot = AsciiPlot(width=20, height=6)
        plot.add_series("flat", [0, 1, 2], [5.0, 5.0, 5.0])
        text = plot.render()
        assert "flat" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            AsciiPlot(width=4, height=4)
        plot = AsciiPlot(width=20, height=6)
        with pytest.raises(ValueError):
            plot.add_series("bad", [1, 2], [1])
        with pytest.raises(ValueError):
            plot.add_series("empty", [], [])
        with pytest.raises(ValueError):
            plot.render()

    def test_series_limit(self):
        plot = AsciiPlot(width=20, height=6)
        for index in range(8):
            plot.add_series(f"s{index}", [0], [index])
        with pytest.raises(ValueError):
            plot.add_series("overflow", [0], [9])


def make_result(passed=True):
    return ExperimentResult(
        experiment_id="TX",
        title="test experiment",
        columns=("a", "b"),
        rows=[(1, 2.5), ("x", 0.125)],
        paper_reference={"claim": "something"},
        checks={"works": passed},
        notes="a note",
    )


class TestMarkdown:
    def test_section_contains_table_and_checks(self):
        text = render_result_markdown(make_result())
        assert "## TX — test experiment" in text
        assert "| a | b |" in text
        assert "PASS `works`" in text
        assert "> a note" in text

    def test_failed_check_bolded(self):
        text = render_result_markdown(make_result(passed=False))
        assert "**FAIL** `works`" in text

    def test_report_header_counts(self):
        text = render_markdown_report([make_result(), make_result(False)])
        assert "**1/2 experiments pass" in text
        assert "FAIL: works" in text

    def test_report_requires_results(self):
        with pytest.raises(ValueError):
            render_markdown_report([])

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "report.md"
        count = write_markdown_report(str(path), [make_result()])
        assert count > 0
        assert path.read_text().startswith("# Reproduction report")

    def test_float_formatting(self):
        text = render_result_markdown(make_result())
        assert "0.125" in text


class TestCliReportMd:
    def test_command(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "r.md"
        assert main(["report-md", "--ids", "FIG4", "--output", str(output)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "[FIG4]" not in output.read_text()  # markdown style, not render()
        assert "## FIG4" in output.read_text()


class TestSparkline:
    def test_empty_input_is_empty_string(self):
        from repro.reporting import sparkline

        assert sparkline([]) == ""

    def test_monotonic_ramp_uses_rising_levels(self):
        from repro.reporting import sparkline

        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert list(line) == sorted(line)

    def test_width_keeps_the_trailing_values(self):
        from repro.reporting import sparkline

        assert sparkline([9.0, 9.0, 0.0, 1.0], width=2) == sparkline([0.0, 1.0])
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

    def test_pinned_scale_compares_honestly(self):
        from repro.reporting import sparkline

        # With the scale pinned to [0, 16], a value of 1 stays low even
        # when it is the series maximum.
        assert sparkline([1.0, 1.0], low=0.0, high=16.0) == "▁▁"

    def test_constant_series_renders_flat_low(self):
        from repro.reporting import sparkline

        line = sparkline([5.0, 5.0, 5.0])
        assert line == "▁▁▁"

    def test_non_finite_values_render_as_spaces(self):
        from repro.reporting import sparkline

        assert sparkline([0.0, float("nan"), 1.0])[1] == " "
        assert sparkline([float("inf")] * 3) == "   "

"""Presentation layer: terminal plots and markdown reports.

* :mod:`repro.reporting.ascii_plot` — dependency-free scatter/line plots
  for the figure-style experiments (no matplotlib in the offline
  environment, and a terminal plot is what example scripts can show);
* :mod:`repro.reporting.markdown` — renders experiment results into a
  markdown reproduction report (the generator behind
  ``python -m repro report-md``).
"""

from repro.reporting.ascii_plot import AsciiPlot, sparkline
from repro.reporting.markdown import render_markdown_report, write_markdown_report

__all__ = [
    "AsciiPlot",
    "sparkline",
    "render_markdown_report",
    "write_markdown_report",
]

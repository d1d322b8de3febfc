"""Terminal scatter/line plots for figure-style experiment output.

Minimal by design: a fixed-size character canvas, linear axes, one
glyph per series, a legend, and axis labels — enough to *see* Fig. 8's
slopes or Fig. 11's square-root curve in a terminal session or a CI
log, with no plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_GLYPHS = "ox+*#@%&"

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    width: Optional[int] = None,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> str:
    """One-line unicode sparkline of ``values`` (newest rightmost).

    ``width`` keeps only the trailing ``width`` values; ``low``/``high``
    pin the scale (so side-by-side sparklines compare honestly) and
    default to the data's own range.  Non-finite values render as a
    space.  An empty input renders as an empty string.
    """
    data = [float(v) for v in values]
    if width is not None:
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        data = data[-width:]
    if not data:
        return ""
    finite = [v for v in data if np.isfinite(v)]
    if not finite:
        return " " * len(data)
    lo = float(low) if low is not None else min(finite)
    hi = float(high) if high is not None else max(finite)
    if hi <= lo:
        hi = lo + 1.0
    cells: List[str] = []
    for value in data:
        if not np.isfinite(value):
            cells.append(" ")
            continue
        fraction = (value - lo) / (hi - lo)
        index = int(round(fraction * (len(_SPARK_LEVELS) - 1)))
        cells.append(_SPARK_LEVELS[max(0, min(index, len(_SPARK_LEVELS) - 1))])
    return "".join(cells)


class AsciiPlot:
    """A character canvas with data-space plotting.

    >>> plot = AsciiPlot(width=40, height=10)
    >>> plot.add_series("sqrt", [1, 4, 9, 16], [1, 2, 3, 4])
    >>> print(plot.render())          # doctest: +SKIP
    """

    def __init__(
        self,
        width: int = 64,
        height: int = 18,
        title: str = "",
        x_label: str = "",
        y_label: str = "",
    ) -> None:
        if width < 16 or height < 6:
            raise ValueError("canvas must be at least 16x6")
        self.width = width
        self.height = height
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self._series: List[Tuple[str, np.ndarray, np.ndarray]] = []

    def add_series(self, name: str, x: Sequence[float], y: Sequence[float]) -> None:
        """Register one named series (point order is irrelevant)."""
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        if x_arr.size != y_arr.size:
            raise ValueError("x and y must have the same length")
        if x_arr.size == 0:
            raise ValueError("series cannot be empty")
        if len(self._series) >= len(_GLYPHS):
            raise ValueError(f"at most {len(_GLYPHS)} series supported")
        self._series.append((name, x_arr, y_arr))

    # ------------------------------------------------------------------
    def _bounds(self) -> Tuple[float, float, float, float]:
        all_x = np.concatenate([x for _name, x, _y in self._series])
        all_y = np.concatenate([y for _name, _x, y in self._series])
        x_low, x_high = float(all_x.min()), float(all_x.max())
        y_low, y_high = float(all_y.min()), float(all_y.max())
        if x_high == x_low:
            x_high = x_low + 1.0
        if y_high == y_low:
            y_high = y_low + 1.0
        return x_low, x_high, y_low, y_high

    def render(self) -> str:
        """Render the canvas with axes, ticks and legend."""
        if not self._series:
            raise ValueError("nothing to plot")
        x_low, x_high, y_low, y_high = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]
        for index, (_name, x_arr, y_arr) in enumerate(self._series):
            glyph = _GLYPHS[index]
            for x_value, y_value in zip(x_arr, y_arr):
                column = int(
                    round((x_value - x_low) / (x_high - x_low) * (self.width - 1))
                )
                row = int(
                    round((y_value - y_low) / (y_high - y_low) * (self.height - 1))
                )
                grid[self.height - 1 - row][column] = glyph

        lines: List[str] = []
        if self.title:
            lines.append(self.title.center(self.width + 10))
        y_labels = [f"{y_high:.4g}", f"{(y_low + y_high) / 2:.4g}", f"{y_low:.4g}"]
        label_width = max(len(label) for label in y_labels)
        for row_index, row in enumerate(grid):
            if row_index == 0:
                prefix = y_labels[0].rjust(label_width)
            elif row_index == self.height // 2:
                prefix = y_labels[1].rjust(label_width)
            elif row_index == self.height - 1:
                prefix = y_labels[2].rjust(label_width)
            else:
                prefix = " " * label_width
            lines.append(f"{prefix} |{''.join(row)}")
        lines.append(" " * label_width + " +" + "-" * self.width)
        x_axis = f"{x_low:.4g}".ljust(self.width - 8) + f"{x_high:.4g}"
        lines.append(" " * (label_width + 2) + x_axis)
        if self.x_label or self.y_label:
            lines.append(
                " " * (label_width + 2)
                + f"x: {self.x_label}   y: {self.y_label}".rstrip()
            )
        legend = "   ".join(
            f"{_GLYPHS[index]} = {name}" for index, (name, _x, _y) in enumerate(self._series)
        )
        lines.append(" " * (label_width + 2) + legend)
        return "\n".join(lines)

"""Left-aligned plain-text tables, shared by every ``render``.

A leaf module: it imports nothing from :mod:`repro`, so any layer can
use it without an import cycle.
"""

from typing import Sequence


def aligned_table(rows: Sequence[Sequence[str]]) -> str:
    """Columns padded to their widest cell, two spaces apart, with a rule
    under the first (header) row; trailing blanks are stripped."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)

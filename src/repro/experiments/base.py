"""Common result container for the experiment modules."""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.text_table import aligned_table


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction.

    Attributes
    ----------
    experiment_id:
        Identifier from the DESIGN.md index ("TAB1", "FIG11", ...).
    title:
        The paper item being reproduced.
    columns:
        Column headers of the result table.
    rows:
        One tuple per table row (stringifiable cells).
    paper_reference:
        The corresponding values published in the paper, for side-by-side
        reporting; free-form mapping.
    checks:
        Named boolean verdicts ("does the shape hold"), the machine-readable
        summary the tests assert on.
    notes:
        Anything a reader should know when comparing against the paper.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple]
    paper_reference: Dict[str, Any] = dataclasses.field(default_factory=dict)
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)
    notes: str = ""

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    @property
    def failed_checks(self) -> List[str]:
        return [name for name, passed in self.checks.items() if not passed]

    def format_table(self, float_format: str = "{:.4g}") -> str:
        """Render the rows as an aligned plain-text table."""
        header = [str(column) for column in self.columns]
        body = [
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
            for row in self.rows
        ]
        return aligned_table([header] + body)

    def render(self) -> str:
        """Full report: title, table, checks, notes."""
        parts = [f"[{self.experiment_id}] {self.title}", "", self.format_table()]
        if self.checks:
            parts.append("")
            for name, passed in self.checks.items():
                parts.append(f"  check {name}: {'PASS' if passed else 'FAIL'}")
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary form (tuples become lists)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "paper_reference": dict(self.paper_reference),
            "checks": dict(self.checks),
            "notes": self.notes,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to JSON (numpy scalars coerced to Python types)."""

        def coerce(value):
            if hasattr(value, "item"):
                return value.item()
            raise TypeError(f"not JSON serializable: {type(value)}")

        return json.dumps(self.to_dict(), indent=indent, default=coerce)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            columns=tuple(payload["columns"]),
            rows=[tuple(row) for row in payload["rows"]],
            paper_reference=dict(payload.get("paper_reference", {})),
            checks=dict(payload.get("checks", {})),
            notes=payload.get("notes", ""),
        )

    @classmethod
    def from_json(cls, document: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))

"""FIG8 — normalized frequencies vs core supply voltage (paper Fig. 8).

Sweeps the supply from 1.0 V to 1.4 V for the paper's four plotted rings
(IRO 5C, IRO 80C, STR 4C, STR 96C), normalizes each curve to its 1.2 V
frequency, and verifies the two observations the paper makes:

* every curve is (close to) a straight line;
* the 96-stage STR is the least voltage-sensitive, while the 4-stage STR
  matches the IROs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.characterization import VoltageSweepResult, sweep_voltage
from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing

#: Rings plotted in the paper's Fig. 8.
FIG8_RINGS: Tuple[Tuple[str, int], ...] = (
    ("iro", 5),
    ("iro", 80),
    ("str", 4),
    ("str", 96),
)


def _builder(kind: str, stage_count: int):
    if kind == "iro":
        return lambda board: InverterRingOscillator.on_board(board, stage_count)
    return lambda board: SelfTimedRing.on_board(board, stage_count)


def run(
    board: Optional[Board] = None,
    voltages_v: Sequence[float] = tuple(np.round(np.arange(1.0, 1.401, 0.05), 3)),
    rings: Sequence[Tuple[str, int]] = FIG8_RINGS,
) -> ExperimentResult:
    """Reproduce the Fig. 8 normalized-frequency sweep (analytic path)."""
    board = board if board is not None else Board()
    sweeps: Dict[str, VoltageSweepResult] = {}
    for kind, stage_count in rings:
        sweep = sweep_voltage(board, _builder(kind, stage_count), voltages_v)
        sweeps[sweep.ring_name] = sweep

    names = list(sweeps)
    rows: List[Tuple] = []
    for index, voltage in enumerate(voltages_v):
        row = [float(voltage)]
        for name in names:
            row.append(float(sweeps[name].normalized()[index]))
        rows.append(tuple(row))

    excursions = {name: sweeps[name].excursion() for name in names}
    linearities = {name: sweeps[name].linearity() for name in names}
    str96 = next(name for name in names if "STR 96" in name)
    str4 = next(name for name in names if "STR 4" in name)
    iro_names = [name for name in names if name.startswith("IRO")]
    return ExperimentResult(
        experiment_id="FIG8",
        title="Normalized frequencies for core supply 1.0-1.4 V (Fig. 8)",
        columns=tuple(["V core"] + [f"Fn {name}" for name in names]),
        rows=rows,
        paper_reference={
            "observation_1": "frequencies vary linearly with voltage",
            "observation_2": "the 96-stage STR exhibits the lowest voltage sensitivity",
            "observation_3": "the 4-stage STR matches the IRO sensitivity",
        },
        checks={
            "all_curves_linear": all(value > 0.999 for value in linearities.values()),
            "str96_least_sensitive": excursions[str96] == min(excursions.values()),
            "str4_matches_iro": abs(
                excursions[str4] - float(np.mean([excursions[n] for n in iro_names]))
            )
            < 0.05,
        },
        notes="Normalized to the frequency measured at the 1.2 V nominal point.",
    )

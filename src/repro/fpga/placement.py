"""Placement of ring stages onto the FPGA fabric.

The paper places ring LUTs manually, "if possible in the same Altera LAB",
because hops that leave a LAB pay a much larger interconnect delay.  This
module reproduces that placement policy: stages fill LABs sequentially, so
a ring of ``L`` stages spans ``ceil(L / lab_capacity)`` LABs and exactly
that many of its hops (including the wrap-around hop back to stage 0) are
inter-LAB.

The placement fully determines the routing-delay class of each hop, which
is all the timing model needs from it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Tuple


class RoutingClass(enum.Enum):
    """Interconnect class of the hop between two consecutive stages."""

    INTRA_LAB = "intra_lab"
    INTER_LAB = "inter_lab"


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where each ring stage lives and how it reaches its successor.

    Attributes
    ----------
    lut_indices:
        Global LUT index of each stage (stage ``i`` occupies LUT
        ``lut_indices[i]``).
    lab_indices:
        LAB each stage belongs to.
    hop_classes:
        Routing class of the hop from stage ``i`` to stage
        ``(i + 1) % L`` — the last entry is the wrap-around hop.
    """

    lut_indices: Tuple[int, ...]
    lab_indices: Tuple[int, ...]
    hop_classes: Tuple[RoutingClass, ...]

    def __post_init__(self) -> None:
        if not (len(self.lut_indices) == len(self.lab_indices) == len(self.hop_classes)):
            raise ValueError("placement arrays must have one entry per stage")
        if len(self.lut_indices) == 0:
            raise ValueError("placement cannot be empty")

    @property
    def stage_count(self) -> int:
        return len(self.lut_indices)

    @property
    def lab_count(self) -> int:
        return len(set(self.lab_indices))


def place_ring(stage_count: int, lab_capacity: int = 16, first_lut: int = 0) -> Placement:
    """Place a ring using the paper's sequential same-LAB-first policy.

    Parameters
    ----------
    stage_count:
        Number of ring stages (one LUT each, for both IRO and STR).
    lab_capacity:
        LUTs per LAB; 16 for the Cyclone III family.
    first_lut:
        Global index of the first LUT, letting several rings share one
        device without overlapping.
    """
    if stage_count < 1:
        raise ValueError(f"stage count must be positive, got {stage_count}")
    if lab_capacity < 1:
        raise ValueError(f"LAB capacity must be positive, got {lab_capacity}")
    if first_lut < 0:
        raise ValueError(f"first LUT index must be non-negative, got {first_lut}")

    lut_indices = tuple(range(first_lut, first_lut + stage_count))
    lab_indices = tuple(lut // lab_capacity for lut in lut_indices)
    hop_classes = []
    for stage in range(stage_count):
        successor = (stage + 1) % stage_count
        if lab_indices[stage] == lab_indices[successor]:
            hop_classes.append(RoutingClass.INTRA_LAB)
        else:
            hop_classes.append(RoutingClass.INTER_LAB)
    return Placement(
        lut_indices=lut_indices,
        lab_indices=lab_indices,
        hop_classes=tuple(hop_classes),
    )

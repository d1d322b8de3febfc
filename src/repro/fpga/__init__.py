"""FPGA device substrate — the simulated replacement for the paper's boards.

The paper's measurements were taken on five boards featuring Altera
Cyclone III devices.  This subpackage models everything those boards
contributed to the experiment:

* :mod:`repro.fpga.voltage` — how the core supply voltage scales the
  propagation delays (the knob behind Fig. 8 / Table I).
* :mod:`repro.fpga.process` — inter-device ("extra-device") and
  intra-device manufacturing variability (behind Table II).
* :mod:`repro.fpga.device` — the LUT / LAB / routing timing model.
* :mod:`repro.fpga.placement` — placing ring stages into LABs, which
  decides the routing-delay class of every hop.
* :mod:`repro.fpga.board` — a board (device + regulator + supply) and
  board banks programmed with the same "bitstream".
* :mod:`repro.fpga.calibration` — the fitted timing constants that anchor
  the model to the paper's Tables I and II, including the empirical
  token-confinement model (see DESIGN.md Section 5).
"""

from repro.fpga.voltage import VoltageSensitivity, SupplySpec, NOMINAL_CORE_VOLTAGE
from repro.fpga.process import ProcessVariation, DeviceVariation
from repro.fpga.device import DeviceTimingModel, StageTiming, TimingConstants
from repro.fpga.placement import Placement, place_ring, RoutingClass
from repro.fpga.board import Board, BoardBank
from repro.fpga.floorplan import (
    FloorplanPlacement,
    LabGrid,
    PlacementStrategy,
    place_on_grid,
    routed_stage_delays,
)
from repro.fpga.calibration import (
    ConfinementModel,
    CalibratedTiming,
    cyclone_iii_calibration,
    fit_confinement_from_table1,
    TABLE1_TARGETS,
    TABLE2_TARGETS,
)

__all__ = [
    "VoltageSensitivity",
    "SupplySpec",
    "NOMINAL_CORE_VOLTAGE",
    "ProcessVariation",
    "DeviceVariation",
    "DeviceTimingModel",
    "StageTiming",
    "TimingConstants",
    "Placement",
    "place_ring",
    "RoutingClass",
    "Board",
    "BoardBank",
    "FloorplanPlacement",
    "LabGrid",
    "PlacementStrategy",
    "place_on_grid",
    "routed_stage_delays",
    "ConfinementModel",
    "CalibratedTiming",
    "cyclone_iii_calibration",
    "fit_confinement_from_table1",
    "TABLE1_TARGETS",
    "TABLE2_TARGETS",
]

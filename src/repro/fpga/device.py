"""The Cyclone III-like device timing model.

This is the central substitution for the paper's physical boards: given a
:class:`~repro.fpga.placement.Placement`, a sampled
:class:`~repro.fpga.process.DeviceVariation` and a supply voltage, the
model produces the per-stage static delays, Charlie parameters and jitter
magnitudes that the ring simulators consume.

Timing structure of one ring stage (one LUT for both IRO and STR, as in
the paper):

    stage delay = LUT cell delay            (transistor sensitivity)
                + hop routing delay          (interconnect sensitivity)
                [+ Charlie penalty, STR only (confinement sensitivity)]

Each component scales with voltage through its own
:class:`~repro.fpga.voltage.VoltageSensitivity` and with process through
the device's global factor; the LUT delay additionally carries the
per-LUT local mismatch factor.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.fpga.placement import Placement, RoutingClass
from repro.fpga.process import DeviceVariation
from repro.fpga.voltage import (
    NOMINAL_CORE_VOLTAGE,
    NOMINAL_TEMPERATURE_C,
    TemperatureSensitivity,
    VoltageSensitivity,
)


@dataclasses.dataclass(frozen=True)
class TimingConstants:
    """Nominal timing constants of the device family at 1.2 V.

    The default values are the calibration of
    :func:`repro.fpga.calibration.cyclone_iii_calibration`, chosen so the
    model reproduces the nominal frequencies of the paper's Table I (see
    DESIGN.md Section 5 for the derivation).
    """

    lut_delay_ps: float = 200.0
    intra_lab_route_ps: float = 66.0
    inter_lab_route_ps: float = 161.0
    lab_capacity: int = 16
    gate_jitter_sigma_ps: float = 2.0
    transistor_sensitivity: VoltageSensitivity = VoltageSensitivity(1.245)
    interconnect_sensitivity: VoltageSensitivity = VoltageSensitivity(1.12)
    # CMOS logic slows with heat; interconnect responds about half as
    # strongly (typical figures for this node class — the paper sweeps
    # only voltage, so these are modelling assumptions, stated as such).
    transistor_temperature: TemperatureSensitivity = TemperatureSensitivity(8.0e-4)
    interconnect_temperature: TemperatureSensitivity = TemperatureSensitivity(4.0e-4)

    def __post_init__(self) -> None:
        if self.lut_delay_ps <= 0.0:
            raise ValueError(f"LUT delay must be positive, got {self.lut_delay_ps}")
        if self.intra_lab_route_ps < 0.0 or self.inter_lab_route_ps < 0.0:
            raise ValueError("routing delays must be non-negative")
        if self.inter_lab_route_ps < self.intra_lab_route_ps:
            raise ValueError("inter-LAB routing cannot be faster than intra-LAB routing")
        if self.lab_capacity < 1:
            raise ValueError(f"LAB capacity must be positive, got {self.lab_capacity}")
        if self.gate_jitter_sigma_ps < 0.0:
            raise ValueError("gate jitter sigma must be non-negative")

    def route_delay_ps(self, routing_class: RoutingClass) -> float:
        """Nominal routing delay of one hop class."""
        if routing_class is RoutingClass.INTRA_LAB:
            return self.intra_lab_route_ps
        return self.inter_lab_route_ps


@dataclasses.dataclass(frozen=True)
class StageTiming:
    """Fully resolved timing of one ring stage at given (V, process) corner.

    ``static_delay_ps`` is the LUT + routing propagation delay; for STR
    stages ``charlie_ps`` carries the Charlie-effect magnitude (zero for
    IRO stages, which have no second input to interact with).

    ``supply_weight`` is the stage's *relative* response to a
    supply-induced delay modulation, referenced to a pure transistor
    delay: the sensitivity-weighted mean of the stage's components.  A
    plain LUT stage sits near 1.0; an STR stage whose delay is largely
    Charlie penalty (whose fitted voltage coefficient is lower) sits
    noticeably below — the mechanism behind the paper's claim that
    global deterministic jitter is attenuated in STRs.
    """

    lut_delay_ps: float
    routing_delay_ps: float
    charlie_ps: float
    jitter_sigma_ps: float
    supply_weight: float = 1.0

    @property
    def static_delay_ps(self) -> float:
        return self.lut_delay_ps + self.routing_delay_ps


class DeviceTimingModel:
    """Resolves placements into per-stage timing at a voltage/process corner.

    Parameters
    ----------
    constants:
        Family timing constants (defaults match the paper calibration).
    charlie_sensitivity_provider:
        Optional callable ``(stage_count) -> (magnitude_ps, VoltageSensitivity)``
        giving the Charlie penalty of an STR of that length.  Supplied by
        :mod:`repro.fpga.calibration`; ``None`` builds IRO-only timing.
    """

    def __init__(
        self,
        constants: TimingConstants = TimingConstants(),
        charlie_sensitivity_provider=None,
    ) -> None:
        self._constants = constants
        self._charlie_provider = charlie_sensitivity_provider

    @property
    def constants(self) -> TimingConstants:
        return self._constants

    # ------------------------------------------------------------------
    # per-stage timing resolution
    # ------------------------------------------------------------------
    def stage_timings(
        self,
        placement: Placement,
        variation: Optional[DeviceVariation] = None,
        supply_v: float = NOMINAL_CORE_VOLTAGE,
        temperature_c: float = NOMINAL_TEMPERATURE_C,
        with_charlie: bool = False,
    ) -> List[StageTiming]:
        """Resolve the timing of every stage of a placed ring.

        ``with_charlie=True`` adds the STR Charlie penalty (requires a
        charlie provider); IRO callers leave it off.
        """
        constants = self._constants
        stage_count = placement.stage_count
        if variation is None:
            variation = DeviceVariation.nominal(max(placement.lut_indices) + 1)

        lut_factor_v = constants.transistor_sensitivity.delay_factor(
            supply_v
        ) * constants.transistor_temperature.delay_factor(temperature_c)
        route_factor_v = constants.interconnect_sensitivity.delay_factor(
            supply_v
        ) * constants.interconnect_temperature.delay_factor(temperature_c)

        charlie_nominal = 0.0
        charlie_factor_v = 1.0
        charlie_beta = 0.0
        if with_charlie:
            if self._charlie_provider is None:
                raise ValueError(
                    "this DeviceTimingModel has no Charlie provider; build it "
                    "via repro.fpga.calibration.cyclone_iii_calibration()"
                )
            charlie_nominal, charlie_sensitivity = self._charlie_provider(stage_count)
            charlie_beta = charlie_sensitivity.beta_per_volt
            # The confinement fit tells us how strongly the Charlie
            # penalty follows the supply relative to a transistor delay;
            # we apply the same fitted ratio to any global environmental
            # disturbance, temperature included (modelling assumption,
            # see DESIGN.md).
            charlie_temperature = TemperatureSensitivity(
                constants.transistor_temperature.coeff_per_c
                * charlie_beta
                / constants.transistor_sensitivity.beta_per_volt
            )
            charlie_factor_v = charlie_sensitivity.delay_factor(
                supply_v
            ) * charlie_temperature.delay_factor(temperature_c)

        beta_transistor = constants.transistor_sensitivity.beta_per_volt
        beta_interconnect = constants.interconnect_sensitivity.beta_per_volt

        timings: List[StageTiming] = []
        for stage in range(stage_count):
            lut_index = placement.lut_indices[stage]
            process_factor = variation.stage_factor(lut_index)
            lut_delay = constants.lut_delay_ps * process_factor * lut_factor_v
            route_delay = (
                constants.route_delay_ps(placement.hop_classes[stage])
                * variation.global_factor
                * route_factor_v
            )
            charlie = charlie_nominal * process_factor * charlie_factor_v
            # The local Gaussian jitter tracks the (scaled) gate delay: a
            # slower corner is proportionally noisier.
            jitter_sigma = constants.gate_jitter_sigma_ps * process_factor * lut_factor_v
            total_delay = lut_delay + route_delay + charlie
            supply_weight = (
                beta_transistor * lut_delay
                + beta_interconnect * route_delay
                + charlie_beta * charlie
            ) / (beta_transistor * total_delay)
            timings.append(
                StageTiming(
                    lut_delay_ps=lut_delay,
                    routing_delay_ps=route_delay,
                    charlie_ps=charlie,
                    jitter_sigma_ps=jitter_sigma,
                    supply_weight=supply_weight,
                )
            )
        return timings

"""Closed-form environmental sensitivity of composite delay stacks.

A ring's period is a sum of delay components, each following its own
supply law ``D_i(V) = D_i0 / (1 + beta_i (V - V0))``.  This module does
that small algebra in closed form, in one audited place.  No run path
calls it: it is the oracle that ``tests/core/test_sensitivity.py`` holds
the device timing model (``StageTiming.supply_weight``) and the Table I
calibration against.

* :func:`frequency_scale` — the composite frequency vs supply;
* :func:`normalized_excursion` — the Table I ``delta F`` of a stack;
* :func:`sensitivity_weight` — the stack's first-order relative response
  to a delay disturbance referenced to a pure-transistor delay (the
  quantity ``StageTiming.supply_weight`` carries per stage);
* :func:`blended_beta` — the effective single beta of the stack.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Sequence, Tuple

from repro.fpga.voltage import (
    MAX_SWEEP_VOLTAGE,
    MIN_SWEEP_VOLTAGE,
    NOMINAL_CORE_VOLTAGE,
    VoltageSensitivity,
)


@dataclasses.dataclass(frozen=True)
class DelayComponent:
    """One member of a delay stack: a nominal delay and its supply law."""

    delay_ps: float
    beta_per_volt: float

    def __post_init__(self) -> None:
        if self.delay_ps < 0.0:
            raise ValueError(f"delay must be non-negative, got {self.delay_ps}")

    def delay_at(self, supply_v: float) -> float:
        return self.delay_ps * VoltageSensitivity(self.beta_per_volt).delay_factor(
            supply_v
        )


def _validated(components: Iterable[DelayComponent]) -> List[DelayComponent]:
    stack = list(components)
    if not stack:
        raise ValueError("delay stack cannot be empty")
    if sum(component.delay_ps for component in stack) <= 0.0:
        raise ValueError("delay stack must have positive total delay")
    return stack


def total_delay_ps(components: Iterable[DelayComponent], supply_v: float) -> float:
    """Composite delay of the stack at a supply voltage."""
    return sum(component.delay_at(supply_v) for component in _validated(components))


def frequency_scale(components: Iterable[DelayComponent], supply_v: float) -> float:
    """Frequency at ``supply_v`` relative to the nominal point."""
    stack = _validated(components)
    return total_delay_ps(stack, NOMINAL_CORE_VOLTAGE) / total_delay_ps(stack, supply_v)


def normalized_excursion(
    components: Iterable[DelayComponent],
    v_min: float = MIN_SWEEP_VOLTAGE,
    v_max: float = MAX_SWEEP_VOLTAGE,
) -> float:
    """Table I's ``delta F`` for the stack over ``[v_min, v_max]``."""
    stack = _validated(components)
    return frequency_scale(stack, v_max) - frequency_scale(stack, v_min)


def blended_beta(components: Iterable[DelayComponent]) -> float:
    """First-order effective beta: the delay-weighted mean of the betas.

    Exact in the limit of small sweeps; for a single-component stack it
    returns that component's beta exactly.
    """
    stack = _validated(components)
    total = sum(component.delay_ps for component in stack)
    return sum(component.delay_ps * component.beta_per_volt for component in stack) / total


def sensitivity_weight(
    components: Iterable[DelayComponent], reference_beta: float
) -> float:
    """Relative response to a supply disturbance, vs a reference class.

    ``blended_beta / reference_beta`` — a stack made purely of the
    reference class weighs 1.0; a stack diluted by low-beta components
    (the STR's Charlie penalty) weighs below 1.  This is the closed form
    of ``StageTiming.supply_weight``.
    """
    if reference_beta == 0.0:
        raise ValueError("reference beta cannot be zero")
    return blended_beta(components) / reference_beta


def iro_stage_stack(constants=None) -> List[DelayComponent]:
    """The calibrated IRO stage (single-LAB): LUT + intra-LAB route.

    Kept as a test oracle: the tests compare its closed-form sensitivity
    weight with ``InverterRingOscillator.mean_supply_weight``.
    """
    from repro.fpga.device import TimingConstants

    constants = constants if constants is not None else TimingConstants()
    return [
        DelayComponent(constants.lut_delay_ps, constants.transistor_sensitivity.beta_per_volt),
        DelayComponent(
            constants.intra_lab_route_ps, constants.interconnect_sensitivity.beta_per_volt
        ),
    ]


def str_stage_stack(stage_count: int, calibration=None) -> List[DelayComponent]:
    """The calibrated balanced-STR stage: LUT + mean route + Charlie penalty.

    Kept as a test oracle: the tests compare its closed-form sensitivity
    weight with ``SelfTimedRing.mean_supply_weight`` and its excursion
    with Table I.
    """
    from repro.fpga.calibration import cyclone_iii_calibration, mean_route_delay_ps

    calibration = calibration if calibration is not None else cyclone_iii_calibration()
    constants = calibration.constants
    return [
        DelayComponent(constants.lut_delay_ps, constants.transistor_sensitivity.beta_per_volt),
        DelayComponent(
            mean_route_delay_ps(constants, stage_count),
            constants.interconnect_sensitivity.beta_per_volt,
        ),
        DelayComponent(
            calibration.confinement.penalty_ps(stage_count),
            calibration.confinement.beta_per_volt(stage_count),
        ),
    ]

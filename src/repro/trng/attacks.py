"""Supply-manipulation attacks on oscillator-based TRNGs.

The paper's security motivation (after [1], [2]): an attacker who can
nudge the operating point — a static under/over-volt, or injected supply
ripple — adds *deterministic* jitter.  In an IRO that term accumulates
linearly over every stage crossing of a period, so it dominates the
random jitter and lets the attacker steer the sampled bits.  In an STR
the simultaneously propagating tokens all shift together and the term
largely cancels.

Two scenarios are modelled:

* :func:`run_supply_sweep_attack` — the [1]-style static operating-point
  shift: sweep the core voltage, watch the TRNG quality move;
* :func:`run_ripple_attack` — inject sinusoidal supply ripple and compare
  the entropy collapse of IRO-based vs STR-based generators.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import (
    DeterministicModulation,
    SeedLike,
    SinusoidalModulation,
    make_rng,
)
from repro.stats.entropy import bias, markov_entropy_per_bit, shannon_entropy_per_bit
from repro.stats.randomness import run_battery
from repro.trng.elementary import ElementaryTrng

#: Builds a resolved ring for a given supply voltage.
RingFactory = Callable[[float], RingOscillator]


@dataclasses.dataclass(frozen=True)
class AttackOutcome:
    """TRNG quality figures at one attack setting."""

    label: str
    setting: float
    bias: float
    shannon_entropy: float
    markov_entropy: float
    battery_passed: bool
    failed_tests: Sequence[str]


@dataclasses.dataclass(frozen=True)
class SupplyAttack:
    """A sinusoidal ripple injection on the core supply.

    ``delay_amplitude`` is the resulting relative delay modulation (the
    supply amplitude times the delay sensitivity, see
    :meth:`repro.fpga.board.Board.supply_modulation`).
    """

    delay_amplitude: float
    period_ps: float

    def modulation(self) -> DeterministicModulation:
        return SinusoidalModulation(amplitude=self.delay_amplitude, period_ps=self.period_ps)


def _evaluate(
    trng: ElementaryTrng,
    label: str,
    setting: float,
    bit_count: int,
    seed: SeedLike,
    modulation: Optional[DeterministicModulation] = None,
) -> AttackOutcome:
    bits = trng.generate(bit_count, seed=seed, modulation=modulation)
    battery = run_battery(bits)
    return AttackOutcome(
        label=label,
        setting=setting,
        bias=bias(bits),
        shannon_entropy=shannon_entropy_per_bit(bits),
        markov_entropy=markov_entropy_per_bit(bits),
        battery_passed=battery.all_passed,
        failed_tests=tuple(battery.failed_tests),
    )


def run_supply_sweep_attack(
    ring_factory: RingFactory,
    reference_period_ps: float,
    voltages: Sequence[float],
    bit_count: int = 20_000,
    seed: SeedLike = 0,
    label: str = "ring",
) -> List[AttackOutcome]:
    """Static operating-point attack: evaluate the TRNG across voltages.

    ``ring_factory(v)`` must return the ring resolved at supply ``v`` —
    typically ``lambda v: IRO.on_board(board.with_supply(SupplySpec(v)), L)``.
    """
    rng = make_rng(seed)
    outcomes = []
    for voltage in voltages:
        ring = ring_factory(float(voltage))
        trng = ElementaryTrng(ring, reference_period_ps)
        outcomes.append(_evaluate(trng, label, float(voltage), bit_count, seed=rng))
    return outcomes


def run_ripple_attack(
    ring: RingOscillator,
    reference_period_ps: float,
    attack: SupplyAttack,
    bit_count: int = 20_000,
    seed: SeedLike = 0,
    label: Optional[str] = None,
) -> AttackOutcome:
    """Dynamic ripple attack on a single generator."""
    trng = ElementaryTrng(ring, reference_period_ps)
    return _evaluate(
        trng,
        label if label is not None else ring.name,
        attack.delay_amplitude,
        bit_count,
        seed=seed,
        modulation=attack.modulation(),
    )


@dataclasses.dataclass(frozen=True)
class DeterministicResponse:
    """How strongly a ring's period responds to injected supply ripple.

    ``relative_response`` is the measured deterministic period modulation
    per unit of injected delay modulation — the quantity the paper argues
    is smaller for STRs (their Charlie-penalty delay share barely follows
    the supply).  For a sinusoidal ripple slow against the period, the
    expectation is ``supply_weight / sqrt(2)`` (rms of the sine).
    """

    label: str
    attack: SupplyAttack
    clean_sigma_ps: float
    attacked_sigma_ps: float
    mean_period_ps: float

    @property
    def deterministic_sigma_ps(self) -> float:
        """Ripple-induced period deviation, separated in quadrature."""
        excess = self.attacked_sigma_ps**2 - self.clean_sigma_ps**2
        return float(np.sqrt(max(excess, 0.0)))

    @property
    def relative_response(self) -> float:
        """Deterministic period modulation per unit injected amplitude."""
        if self.attack.delay_amplitude == 0.0:
            return 0.0
        return self.deterministic_sigma_ps / (
            self.mean_period_ps * self.attack.delay_amplitude
        )

    @property
    def apparent_q_inflation(self) -> float:
        """Entropy-accounting hazard: apparent over true quality factor.

        A designer provisioning the TRNG from the *attacked* sigma
        overestimates the accumulated randomness by this factor — the
        [2]-style masquerade of deterministic jitter as entropy.
        """
        if self.clean_sigma_ps == 0.0:
            return float("inf")
        return (self.attacked_sigma_ps / self.clean_sigma_ps) ** 2


def measure_deterministic_response(
    ring: RingOscillator,
    attack: SupplyAttack,
    period_count: int = 2048,
    seed: SeedLike = 0,
) -> DeterministicResponse:
    """Measure the ripple-induced period modulation of one ring.

    Simulates the ring twice — clean and under attack — with the same
    noise seed, and separates the deterministic contribution in
    quadrature.  Both runs use the default batch backend, whose kernels
    evaluate the ripple exactly for either ring family.
    """
    clean = ring.simulate(period_count, seed=seed)
    attacked = ring.simulate(period_count, seed=seed, modulation=attack.modulation())
    return DeterministicResponse(
        label=ring.name,
        attack=attack,
        clean_sigma_ps=clean.trace.period_jitter_ps(),
        attacked_sigma_ps=attacked.trace.period_jitter_ps(),
        mean_period_ps=attacked.trace.mean_period_ps(),
    )

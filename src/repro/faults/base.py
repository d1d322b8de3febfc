"""Fault-injection framework: scenarios, effects and timelines.

The paper's robustness claims (C4/C5) are statements about what happens
to a generator when its operating point is disturbed.  This package
turns those disturbances into first-class objects: a
:class:`FaultScenario` describes *an environmental stress as a function
of elapsed time* — never a patched ring.  The stress is expressed in the
same physical vocabulary the rest of the library already speaks:

* an overridden core supply voltage / junction temperature (consumed
  through :meth:`repro.fpga.board.Board.with_supply`);
* a global :class:`~repro.simulation.noise.DeterministicModulation`
  (the Section IV delay-modulation hook of both ring models);
* an *injection strength* — the normalized coupling of a periodic
  aggressor into the ring.  Each ring responds through its own
  ``mean_supply_weight``, so the same environmental fault is more
  dangerous to an IRO than to an STR, which is exactly the paper's
  argument;
* sampling-flip-flop *upsets* (transient glitches forcing captured
  bits), the one disturbance that bypasses the ring entirely;
* outright oscillation death (a stuck stage breaks the single event
  loop of an IRO).

A :class:`FaultSchedule` composes several scenarios on a timeline with
activation windows, itself behaving as one scenario — the composite
attack campaigns of EXT10 are plain schedules.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional, Sequence, Tuple

from repro.simulation.noise import CompositeModulation, DeterministicModulation


@dataclasses.dataclass(frozen=True)
class FaultEffect:
    """The physical stress a fault exerts at one instant.

    All fields are *environmental*: nothing here is specific to a ring.
    The supervised runtime translates an effect into ring behaviour
    through the ring's own sensitivity figures (supply weight, delay
    model range), which is what makes the framework reproduce the
    paper's IRO-vs-STR asymmetry instead of assuming it.

    Attributes
    ----------
    supply_v:
        Overridden core voltage; ``None`` leaves the board's supply.
    temperature_c:
        Overridden junction temperature; ``None`` leaves the board's.
    modulation:
        Additional global delay modulation (supply ripple et al.).
    injection_strength:
        Normalized strength of a periodic aggressor coupling into the
        rings.  A ring whose ``mean_supply_weight * injection_strength``
        exceeds the lock threshold is injection-locked — its phase
        diffusion collapses and the sampled output freezes.
    upset_fraction:
        Probability that a given sampling flip-flop capture is forced
        to ``upset_value`` by a transient glitch.
    upset_value:
        The value glitched captures resolve to.
    upset_local:
        ``True`` confines upsets to the attacked (primary) sampler;
        ``False`` hits every sampler on the board (a shared control
        net glitch).
    oscillation_dead:
        The ring produces no edges at all (stuck stage, supply collapse).
    """

    supply_v: Optional[float] = None
    temperature_c: Optional[float] = None
    modulation: Optional[DeterministicModulation] = None
    injection_strength: float = 0.0
    upset_fraction: float = 0.0
    upset_value: int = 0
    upset_local: bool = True
    oscillation_dead: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.injection_strength):
            raise ValueError(
                f"injection strength must be non-negative, got {self.injection_strength}"
            )
        if not (0.0 <= self.upset_fraction <= 1.0):
            raise ValueError(
                f"upset fraction must be in [0, 1], got {self.upset_fraction}"
            )
        if self.upset_value not in (0, 1):
            raise ValueError(f"upset value must be 0 or 1, got {self.upset_value}")

    def merged(self, other: "FaultEffect") -> "FaultEffect":
        """Combine two simultaneous effects into one.

        Operating-point overrides from ``other`` win (last fault on the
        timeline dominates the regulator); modulations add; injection
        strengths add (two aggressors on the same supply); independent
        upset processes combine as ``1 - (1-a)(1-b)``; death is sticky.
        """
        modulations = [m for m in (self.modulation, other.modulation) if m is not None]
        modulation: Optional[DeterministicModulation]
        if len(modulations) == 2:
            modulation = CompositeModulation(modulations)
        elif modulations:
            modulation = modulations[0]
        else:
            modulation = None
        upset = 1.0 - (1.0 - self.upset_fraction) * (1.0 - other.upset_fraction)
        upset_value = other.upset_value if other.upset_fraction > 0.0 else self.upset_value
        return FaultEffect(
            supply_v=other.supply_v if other.supply_v is not None else self.supply_v,
            temperature_c=(
                other.temperature_c
                if other.temperature_c is not None
                else self.temperature_c
            ),
            modulation=modulation,
            injection_strength=self.injection_strength + other.injection_strength,
            upset_fraction=upset,
            upset_value=upset_value,
            upset_local=self.upset_local and other.upset_local,
            oscillation_dead=self.oscillation_dead or other.oscillation_dead,
        )


#: The do-nothing effect every scenario returns outside its windows.
NOMINAL_EFFECT = FaultEffect()


class FaultScenario(abc.ABC):
    """One injectable fault: environmental stress as a function of time.

    Scenarios are stateless — :meth:`effect_at` is a pure function of
    the elapsed time since the scenario became active, so a scenario
    can be replayed, windowed by a :class:`FaultSchedule`, and swept in
    severity without bookkeeping.
    """

    def __init__(self, name: str, severity: float) -> None:
        if not (0.0 <= severity <= 1.0):
            raise ValueError(f"severity must be in [0, 1], got {severity}")
        self.name = name
        self.severity = float(severity)

    @abc.abstractmethod
    def effect_at(self, elapsed_s: float) -> FaultEffect:
        """Stress exerted ``elapsed_s`` seconds after activation."""

    def describe(self) -> str:
        """One-line human summary for event logs and reports."""
        return f"{self.name} (severity {self.severity:.2f})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, severity={self.severity})"


@dataclasses.dataclass(frozen=True)
class ScheduledFault:
    """A fault plus its activation window on the campaign timeline.

    ``stop_s = None`` keeps the fault active forever once started; the
    fault's own clock starts at ``start_s`` (its ``effect_at`` sees time
    elapsed *since activation*).
    """

    fault: FaultScenario
    start_s: float = 0.0
    stop_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ValueError(f"start must be non-negative, got {self.start_s}")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError(
                f"stop ({self.stop_s}) must come after start ({self.start_s})"
            )

    def active_at(self, time_s: float) -> bool:
        if time_s < self.start_s:
            return False
        return self.stop_s is None or time_s < self.stop_s


class FaultSchedule(FaultScenario):
    """A composite scenario: several faults on one timeline.

    The schedule is itself a :class:`FaultScenario` (severity = maximum
    over its entries), so schedules nest and anything accepting a
    scenario accepts a schedule.
    """

    def __init__(self, entries: Sequence[ScheduledFault], name: str = "schedule") -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a fault schedule needs at least one entry")
        severity = max(entry.fault.severity for entry in entries)
        super().__init__(name, severity)
        self._entries = entries

    @property
    def entries(self) -> Tuple[ScheduledFault, ...]:
        return self._entries

    def effect_at(self, elapsed_s: float) -> FaultEffect:
        effect = NOMINAL_EFFECT
        for entry in self._entries:
            if entry.active_at(elapsed_s):
                effect = effect.merged(entry.fault.effect_at(elapsed_s - entry.start_s))
        return effect

    def describe(self) -> str:
        parts = []
        for entry in self._entries:
            window = f"{entry.start_s:g}s.." + (
                f"{entry.stop_s:g}s" if entry.stop_s is not None else "inf"
            )
            parts.append(f"{entry.fault.describe()} @ {window}")
        return f"{self.name}: " + "; ".join(parts)

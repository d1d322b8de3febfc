"""Fault-injection framework: effects, library faults and schedules."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    NOMINAL_EFFECT,
    FaultEffect,
    FaultSchedule,
    GlitchBurstFault,
    ScheduledFault,
    StuckStageFault,
    SupplyRippleFault,
    TemperatureRampFault,
    VoltageBrownoutFault,
    demo_schedule,
    standard_fault,
)
from repro.simulation.noise import CompositeModulation, SinusoidalModulation


class TestFaultEffect:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEffect(injection_strength=-0.1)
        with pytest.raises(ValueError):
            FaultEffect(upset_fraction=1.5)
        with pytest.raises(ValueError):
            FaultEffect(upset_value=2)

    def test_merged_overrides_and_addition(self):
        first = FaultEffect(supply_v=1.0, injection_strength=0.3)
        second = FaultEffect(supply_v=0.9, temperature_c=80.0, injection_strength=0.4)
        merged = first.merged(second)
        assert merged.supply_v == 0.9  # later fault wins the regulator
        assert merged.temperature_c == 80.0
        assert merged.injection_strength == pytest.approx(0.7)  # aggressors add

    def test_merged_keeps_earlier_override_when_later_is_silent(self):
        merged = FaultEffect(supply_v=1.0).merged(FaultEffect(temperature_c=50.0))
        assert merged.supply_v == 1.0
        assert merged.temperature_c == 50.0

    def test_merged_combines_independent_upsets(self):
        merged = FaultEffect(upset_fraction=0.5).merged(FaultEffect(upset_fraction=0.5))
        assert merged.upset_fraction == pytest.approx(0.75)

    def test_merged_death_is_sticky(self):
        dead = FaultEffect(oscillation_dead=True)
        assert dead.merged(NOMINAL_EFFECT).oscillation_dead
        assert NOMINAL_EFFECT.merged(dead).oscillation_dead

    def test_merged_composes_modulations(self):
        ripple = SinusoidalModulation(0.02, 1e9)
        merged = FaultEffect(modulation=ripple).merged(FaultEffect(modulation=ripple))
        assert isinstance(merged.modulation, CompositeModulation)
        assert FaultEffect(modulation=ripple).merged(NOMINAL_EFFECT).modulation is ripple


class TestLibraryFaults:
    def test_severity_validation(self):
        with pytest.raises(ValueError):
            StuckStageFault(1.5)
        with pytest.raises(ValueError):
            VoltageBrownoutFault(-0.1)

    def test_stuck_is_binary(self):
        assert StuckStageFault(0.0).effect_at(0.0) == NOMINAL_EFFECT
        for severity in (0.25, 1.0):
            assert StuckStageFault(severity).effect_at(0.0).oscillation_dead

    def test_brownout_scales_sag_and_ripple(self):
        effect = VoltageBrownoutFault(0.5, max_drop_v=0.4).effect_at(0.0)
        assert effect.supply_v == pytest.approx(1.2 - 0.2)
        assert effect.injection_strength == pytest.approx(0.5)
        assert VoltageBrownoutFault(0.0).effect_at(0.0) == NOMINAL_EFFECT

    def test_brownout_drop_validation(self):
        with pytest.raises(ValueError):
            VoltageBrownoutFault(0.5, max_drop_v=1.5)

    def test_ripple_attack_carries_modulation(self):
        effect = SupplyRippleFault(0.8, amplitude=0.05, period_s=0.01).effect_at(0.0)
        assert isinstance(effect.modulation, SinusoidalModulation)
        assert effect.modulation.amplitude == pytest.approx(0.04)
        assert effect.modulation.period_ps == pytest.approx(0.01 * 1e12)
        assert effect.injection_strength == pytest.approx(0.8)

    def test_temperature_ramp_profile(self):
        fault = TemperatureRampFault(1.0, ramp_s=0.5, start_c=25.0, max_rise_c=125.0)
        assert fault.temperature_at(0.0) == pytest.approx(25.0)
        assert fault.temperature_at(0.25) == pytest.approx(87.5)
        assert fault.temperature_at(0.5) == pytest.approx(150.0)
        assert fault.temperature_at(10.0) == pytest.approx(150.0)  # holds
        half = TemperatureRampFault(0.5, ramp_s=0.5)
        assert half.effect_at(1.0).temperature_c == pytest.approx(25.0 + 62.5)

    def test_glitch_burst_duty_cycle(self):
        fault = GlitchBurstFault(0.6, burst_period_s=0.2, burst_duty=0.5)
        assert fault.effect_at(0.05).upset_fraction == pytest.approx(0.6)
        assert fault.effect_at(0.15) == NOMINAL_EFFECT  # outside the duty window
        continuous = GlitchBurstFault(0.6)
        assert continuous.effect_at(123.4).upset_fraction == pytest.approx(0.6)

    def test_glitch_locality_flag(self):
        assert GlitchBurstFault(0.5, local=True).effect_at(0.0).upset_local
        assert not GlitchBurstFault(0.5, local=False).effect_at(0.0).upset_local

    def test_standard_fault_factory(self):
        for kind in FAULT_KINDS:
            fault = standard_fault(kind, 0.5)
            assert fault.severity == 0.5
        with pytest.raises(ValueError, match="unknown fault kind"):
            standard_fault("cosmic_ray", 1.0)

    def test_glitch_burst_window(self):
        fault = GlitchBurstFault(0.6, burst_period_s=0.2, burst_duty=0.25)
        assert fault.burst_active(0.0)
        assert fault.burst_active(0.049)
        assert not fault.burst_active(0.05)
        assert fault.burst_active(0.21)  # the next period starts a new burst

    def test_glitch_burst_before_start_counts_as_start(self):
        fault = GlitchBurstFault(0.6, burst_period_s=0.2, burst_duty=0.25)
        assert fault.burst_active(-1.0) == fault.burst_active(0.0)

    def test_full_duty_glitch_never_rests(self):
        fault = GlitchBurstFault(0.6, burst_period_s=0.2)
        assert all(fault.burst_active(t) for t in (0.0, 0.1, 0.199, 7.3))


class TestSchedules:
    def test_window_activation(self):
        entry = ScheduledFault(StuckStageFault(), start_s=1.0, stop_s=2.0)
        assert not entry.active_at(0.5)
        assert entry.active_at(1.0)
        assert entry.active_at(1.99)
        assert not entry.active_at(2.0)

    def test_open_ended_window(self):
        entry = ScheduledFault(StuckStageFault(), start_s=1.0)
        assert entry.active_at(1e6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ScheduledFault(StuckStageFault(), start_s=-1.0)
        with pytest.raises(ValueError):
            ScheduledFault(StuckStageFault(), start_s=2.0, stop_s=1.0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule([])

    def test_schedule_merges_active_entries(self):
        schedule = FaultSchedule(
            [
                ScheduledFault(VoltageBrownoutFault(0.5), start_s=0.0, stop_s=2.0),
                ScheduledFault(GlitchBurstFault(0.4), start_s=1.0),
            ]
        )
        early = schedule.effect_at(0.5)
        assert early.supply_v is not None and early.upset_fraction == 0.0
        both = schedule.effect_at(1.5)
        assert both.supply_v is not None and both.upset_fraction == pytest.approx(0.4)
        late = schedule.effect_at(3.0)
        assert late.supply_v is None and late.upset_fraction == pytest.approx(0.4)

    def test_fault_clock_starts_at_activation(self):
        ramp = TemperatureRampFault(1.0, ramp_s=0.5)
        schedule = FaultSchedule([ScheduledFault(ramp, start_s=2.0)])
        # at t = 2.25 the ramp has been running for 0.25 s
        assert schedule.effect_at(2.25).temperature_c == pytest.approx(
            ramp.temperature_at(0.25)
        )

    def test_schedule_is_a_scenario(self):
        schedule = demo_schedule(0.8)
        assert schedule.severity == pytest.approx(0.8)
        assert "voltage_brownout" in schedule.describe()
        assert schedule.effect_at(1e9) == NOMINAL_EFFECT

    def test_nested_schedules(self):
        inner = FaultSchedule([ScheduledFault(StuckStageFault(), start_s=1.0)])
        outer = FaultSchedule([ScheduledFault(inner, start_s=1.0)])
        assert outer.effect_at(1.5) == NOMINAL_EFFECT  # inner clock only at 0.5
        assert outer.effect_at(2.5).oscillation_dead

"""Device timing model."""

import numpy as np
import pytest

from repro.fpga.device import DeviceTimingModel, StageTiming, TimingConstants
from repro.fpga.placement import place_ring
from repro.fpga.process import DeviceVariation
from repro.fpga.voltage import VoltageSensitivity


class TestTimingConstants:
    def test_defaults_sane(self):
        constants = TimingConstants()
        assert constants.lut_delay_ps > 0
        assert constants.inter_lab_route_ps > constants.intra_lab_route_ps

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lut_delay_ps": 0.0},
            {"intra_lab_route_ps": -1.0},
            {"inter_lab_route_ps": 10.0, "intra_lab_route_ps": 20.0},
            {"lab_capacity": 0},
            {"gate_jitter_sigma_ps": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimingConstants(**kwargs)


class TestStageTiming:
    def test_delays_add_up(self):
        timing = StageTiming(
            lut_delay_ps=200.0, routing_delay_ps=66.0, charlie_ps=100.0, jitter_sigma_ps=2.0
        )
        assert timing.static_delay_ps == pytest.approx(266.0)


class TestDeviceTimingModel:
    def test_iro_stage_delay_at_nominal(self):
        model = DeviceTimingModel()
        placement = place_ring(5)
        timings = model.stage_timings(placement)
        constants = model.constants
        for timing in timings:
            assert timing.lut_delay_ps == pytest.approx(constants.lut_delay_ps)
            assert timing.routing_delay_ps == pytest.approx(constants.intra_lab_route_ps)
            assert timing.charlie_ps == 0.0
            assert timing.supply_weight == pytest.approx(
                (
                    constants.transistor_sensitivity.beta_per_volt * constants.lut_delay_ps
                    + constants.interconnect_sensitivity.beta_per_volt
                    * constants.intra_lab_route_ps
                )
                / (
                    constants.transistor_sensitivity.beta_per_volt
                    * (constants.lut_delay_ps + constants.intra_lab_route_ps)
                )
            )

    def test_inter_lab_hops_pay_more(self):
        model = DeviceTimingModel()
        placement = place_ring(24)
        timings = model.stage_timings(placement)
        routes = {round(t.routing_delay_ps, 3) for t in timings}
        assert len(routes) == 2  # intra and inter classes present

    def test_voltage_scales_delays(self):
        model = DeviceTimingModel()
        placement = place_ring(5)
        nominal = model.stage_timings(placement, supply_v=1.2)
        fast = model.stage_timings(placement, supply_v=1.4)
        assert fast[0].static_delay_ps < nominal[0].static_delay_ps

    def test_process_factors_apply(self):
        model = DeviceTimingModel()
        placement = place_ring(3)
        variation = DeviceVariation(
            global_factor=1.1, lut_factors=np.array([1.0, 0.9, 1.2])
        )
        timings = model.stage_timings(placement, variation=variation)
        assert timings[1].lut_delay_ps == pytest.approx(200.0 * 1.1 * 0.9)
        assert timings[2].lut_delay_ps == pytest.approx(200.0 * 1.1 * 1.2)
        # Routing shares only the global factor.
        assert timings[0].routing_delay_ps == pytest.approx(66.0 * 1.1)

    def test_charlie_requires_provider(self):
        model = DeviceTimingModel()
        with pytest.raises(ValueError, match="Charlie provider"):
            model.stage_timings(place_ring(4), with_charlie=True)

    def test_charlie_provider_used(self):
        provider = lambda stage_count: (123.0, VoltageSensitivity(0.8))
        model = DeviceTimingModel(charlie_sensitivity_provider=provider)
        timings = model.stage_timings(place_ring(4), with_charlie=True)
        assert timings[0].charlie_ps == pytest.approx(123.0)
        # A low-beta Charlie share must lower the supply weight below 1.
        assert timings[0].supply_weight < 1.0

    def test_jitter_sigma_tracks_process(self):
        model = DeviceTimingModel()
        variation = DeviceVariation(global_factor=1.0, lut_factors=np.array([2.0, 1.0, 1.0]))
        timings = model.stage_timings(place_ring(3), variation=variation)
        assert timings[0].jitter_sigma_ps == pytest.approx(2.0 * timings[1].jitter_sigma_ps)

    def test_aggregates(self):
        model = DeviceTimingModel()
        timings = model.stage_timings(place_ring(5))
        assert np.mean([t.static_delay_ps for t in timings]) == pytest.approx(266.0)

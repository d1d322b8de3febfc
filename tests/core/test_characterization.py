"""Characterization campaign drivers."""

import numpy as np
import pytest

from repro.core.characterization import (
    jitter_versus_length,
    measure_family_dispersion,
    measure_period_jitter,
    sweep_voltage,
)
from repro.fpga.voltage import SupplySpec
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing


def iro5(board):
    return InverterRingOscillator.on_board(board, 5)


class TestSweepVoltage:
    def test_analytic_sweep(self, board):
        result = sweep_voltage(board, iro5, (1.0, 1.2, 1.4))
        assert result.ring_name == "IRO 5C"
        assert result.nominal_frequency_mhz == pytest.approx(375.94, rel=1e-3)
        assert result.excursion() == pytest.approx(0.486, abs=0.01)
        assert result.frequencies_mhz[0] < result.frequencies_mhz[-1]

    def test_normalized_is_one_at_nominal(self, board):
        result = sweep_voltage(board, iro5, (1.0, 1.2, 1.4))
        assert result.normalized()[1] == pytest.approx(1.0)

    def test_linearity(self, board):
        result = sweep_voltage(board, iro5, tuple(np.arange(1.0, 1.41, 0.1)))
        assert result.linearity() > 0.999

    def test_measured_sweep_close_to_analytic(self, board):
        voltages = (1.0, 1.2, 1.4)
        analytic = sweep_voltage(board, iro5, voltages)
        measured = [
            iro5(board.with_supply(SupplySpec(voltage_v=voltage))).measure_frequency_mhz(
                period_count=48, seed=1
            )
            for voltage in voltages
        ]
        assert np.allclose(measured, analytic.frequencies_mhz, rtol=0.02)

    def test_needs_two_points(self, board):
        with pytest.raises(ValueError):
            sweep_voltage(board, iro5, (1.2,))


class TestFamilyDispersion:
    def test_dispersion_positive(self, bank):
        result = measure_family_dispersion(bank, iro5)
        assert result.sigma_rel > 0.0
        assert len(result.frequencies_mhz) == 5
        assert result.board_names == tuple(f"board {i}" for i in range(1, 6))

    def test_str96_tighter_than_iro3(self, bank):
        iro = measure_family_dispersion(
            bank, lambda b: InverterRingOscillator.on_board(b, 3)
        )
        str_ = measure_family_dispersion(bank, lambda b: SelfTimedRing.on_board(b, 96))
        assert str_.sigma_rel < iro.sigma_rel


class TestMeasurePeriodJitter:
    def test_population_method(self, board):
        ring = InverterRingOscillator.on_board(board, 5)
        result = measure_period_jitter(ring, method="population", period_count=1024, seed=0)
        assert result.sigma_period_ps == pytest.approx(
            ring.predicted_period_jitter_ps(), rel=0.15
        )
        assert result.method == "population"
        assert result.divider_reading is None

    def test_divider_method_close_on_iro(self, board):
        ring = InverterRingOscillator.on_board(board, 5)
        result = measure_period_jitter(ring, method="divider", period_count=8192, seed=0)
        assert result.divider_reading is not None
        assert result.sigma_period_ps == pytest.approx(
            ring.predicted_period_jitter_ps(), rel=0.25
        )

    def test_unknown_method(self, board):
        with pytest.raises(ValueError):
            measure_period_jitter(iro5(board), method="magic")

    def test_jitter_versus_length_iro(self, board):
        results = jitter_versus_length(
            board, (3, 15), ring_family="iro", period_count=768, seed=2
        )
        assert results[1].sigma_period_ps > results[0].sigma_period_ps

    def test_jitter_versus_length_str_flat(self, board):
        results = jitter_versus_length(
            board, (8, 48), ring_family="str", period_count=512, seed=2
        )
        ratio = results[1].sigma_period_ps / results[0].sigma_period_ps
        assert 0.6 < ratio < 1.6

    def test_bad_family(self, board):
        with pytest.raises(ValueError):
            jitter_versus_length(board, (4,), ring_family="lc_tank")

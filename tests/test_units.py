"""Unit conversions."""

import pytest

from repro import units


class TestFrequencyPeriod:
    def test_mhz_to_period(self):
        assert units.mhz_to_period_ps(500.0) == pytest.approx(2000.0)

    def test_period_to_mhz(self):
        assert units.period_ps_to_mhz(2000.0) == pytest.approx(500.0)

    def test_round_trip(self):
        for freq in (0.001, 1.0, 320.0, 653.0, 5000.0):
            assert units.period_ps_to_mhz(units.mhz_to_period_ps(freq)) == pytest.approx(freq)

    def test_one_mhz_is_one_microsecond(self):
        assert units.mhz_to_period_ps(1.0) == pytest.approx(units.PS_PER_US)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -320.0])
    def test_rejects_nonpositive_frequency(self, bad):
        with pytest.raises(ValueError):
            units.mhz_to_period_ps(bad)

    @pytest.mark.parametrize("bad", [0.0, -2000.0])
    def test_rejects_nonpositive_period(self, bad):
        with pytest.raises(ValueError):
            units.period_ps_to_mhz(bad)

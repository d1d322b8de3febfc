"""The XOR-of-rings TRNG and its design point."""

import math

import numpy as np
import pytest

from repro.rings.iro import InverterRingOscillator
from repro.stats.entropy import markov_entropy_per_bit
from repro.trng.phasewalk import predicted_shannon_entropy, quality_factor
from repro.trng.xored_rings import XoredDesignPoint, XoredRingTrng

PERIOD_PS = 2660.0
JITTER_PS = 6.3


def detuned_periods(ring_count):
    return [PERIOD_PS + 7.3 * index for index in range(ring_count)]


class TestDesignPoint:
    def test_per_ring_q(self):
        point = XoredDesignPoint(4, PERIOD_PS, JITTER_PS, 2.0e6)
        assert point.per_ring_q == pytest.approx(quality_factor(JITTER_PS, PERIOD_PS, 2.0e6))

    def test_per_ring_entropy(self):
        point = XoredDesignPoint(4, PERIOD_PS, JITTER_PS, 2.0e6)
        assert point.per_ring_entropy == pytest.approx(
            predicted_shannon_entropy(point.per_ring_q)
        )

    def test_single_ring_bias_is_the_ring_bias(self):
        point = XoredDesignPoint(1, PERIOD_PS, JITTER_PS, 2.0e6)
        eps = math.sqrt((1.0 - point.per_ring_entropy) * math.log(2.0) / 2.0)
        assert point.xor_bias_bound == pytest.approx(eps)

    def test_bias_bound_shrinks_with_every_ring(self):
        bounds = [
            XoredDesignPoint(count, PERIOD_PS, JITTER_PS, 2.0e6).xor_bias_bound
            for count in range(1, 9)
        ]
        assert all(later < earlier for earlier, later in zip(bounds, bounds[1:]))

    def test_piling_up_lemma(self):
        one = XoredDesignPoint(1, PERIOD_PS, JITTER_PS, 2.0e6).xor_bias_bound
        three = XoredDesignPoint(3, PERIOD_PS, JITTER_PS, 2.0e6).xor_bias_bound
        assert three == pytest.approx(4.0 * one**3)

    def test_full_entropy_rings_have_no_bias(self):
        point = XoredDesignPoint(2, PERIOD_PS, JITTER_PS, 1.0e9)
        assert point.per_ring_entropy == 1.0
        assert point.xor_bias_bound == 0.0

    @pytest.mark.parametrize("ring_count", [1, 2, 5, 10])
    def test_jitter_free_rings_still_bound_a_valid_bias(self, ring_count):
        point = XoredDesignPoint(ring_count, PERIOD_PS, 0.0, 2.0e6)
        assert point.per_ring_q == 0.0
        assert 0.0 < point.xor_bias_bound < 0.5


class TestGenerator:
    def test_design_point_averages_the_rings(self):
        trng = XoredRingTrng([1000.0, 1010.0, 1020.0], 3.0, 5.0e5)
        point = trng.design_point()
        assert point.ring_count == 3 == trng.ring_count
        assert point.period_ps == pytest.approx(1010.0)
        assert point.period_jitter_ps == 3.0
        assert point.reference_period_ps == 5.0e5 == trng.reference_period_ps

    def test_needs_a_ring(self):
        with pytest.raises(ValueError):
            XoredRingTrng([], JITTER_PS, 2.0e6)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            XoredRingTrng(detuned_periods(2), JITTER_PS, 2.0e6).generate(0)

    def test_output_is_binary_and_seeded(self):
        trng = XoredRingTrng(detuned_periods(3), JITTER_PS, 2.0e6)
        bits = trng.generate(4096, seed=5)
        assert bits.shape == (4096,)
        assert set(np.unique(bits)) <= {0, 1}
        np.testing.assert_array_equal(bits, trng.generate(4096, seed=5))

    def test_xor_breaks_single_ring_patterns(self):
        def markov(ring_count):
            trng = XoredRingTrng(detuned_periods(ring_count), JITTER_PS, 2.0e6)
            return markov_entropy_per_bit(trng.generate(20000, seed=3))

        single, quad = markov(1), markov(4)
        assert single < 0.9
        assert quad > 0.99


class TestOnBoard:
    def test_ring_count(self, board):
        assert XoredRingTrng.on_board(board, 5, 7, 2.0e5).ring_count == 7

    def test_rejects_no_rings(self, board):
        with pytest.raises(ValueError):
            XoredRingTrng.on_board(board, 5, 0, 2.0e5)

    def test_rings_tile_the_device_side_by_side(self, board):
        # Three 5-stage rings occupy LUTs 0..14 of one LAB on a nominal
        # board, so every ring has the same period as a lone IRO 5C.
        single = InverterRingOscillator.on_board(board, 5)
        point = XoredRingTrng.on_board(board, 5, 3, 2.0e5).design_point()
        assert point.period_ps == pytest.approx(single.predicted_period_ps())
        assert point.period_jitter_ps == pytest.approx(single.predicted_period_jitter_ps())

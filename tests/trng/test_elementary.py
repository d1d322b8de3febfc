"""Elementary TRNG."""

import tracemalloc

import numpy as np
import pytest

from repro.rings.iro import InverterRingOscillator
from repro.trng.elementary import (
    ElementaryTrng,
    predicted_shannon_entropy,
    quality_factor,
)
from repro.trng.phasewalk import reference_period_for_q


def fast_ring(sigma=2.0):
    return InverterRingOscillator([100.0] * 5, jitter_sigmas_ps=sigma)


class TestQualityFactor:
    def test_formula(self):
        # Q = (Tref/T) sigma^2 / T^2
        assert quality_factor(2.0, 1000.0, 100_000.0) == pytest.approx(
            100.0 * 4.0 / 1e6
        )

    def test_entropy_bound_monotone(self):
        values = [predicted_shannon_entropy(q) for q in (0.0, 0.01, 0.05, 0.1, 0.5)]
        assert values == sorted(values)
        # At Q = 0 the Baudet-style bound degrades to 1 - 4/(pi^2 ln 2),
        # not to 0 (it is a lower bound, loose at small Q).
        assert values[0] == pytest.approx(1.0 - 4.0 / (np.pi**2 * np.log(2.0)))
        assert values[-1] > 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            quality_factor(-1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            predicted_shannon_entropy(-0.1)


class TestElementaryTrng:
    def test_requires_subsampling(self):
        with pytest.raises(ValueError, match="reference period"):
            ElementaryTrng(fast_ring(), reference_period_ps=500.0)

    def test_design_point(self):
        trng = ElementaryTrng(fast_ring(), reference_period_ps=100_000.0)
        point = trng.design_point()
        assert point.periods_per_sample == pytest.approx(100.0)
        assert point.q_factor > 0.0
        assert 0.0 <= point.entropy_bound <= 1.0

    def test_generates_requested_bits(self):
        trng = ElementaryTrng(fast_ring(), reference_period_ps=20_000.0)
        bits = trng.generate(256, seed=0)
        assert bits.shape == (256,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_deterministic_given_seed(self):
        trng = ElementaryTrng(fast_ring(), reference_period_ps=20_000.0)
        assert np.array_equal(trng.generate(128, seed=5), trng.generate(128, seed=5))

    def test_well_provisioned_source_is_balanced(self):
        # High Q: strong jitter accumulation -> roughly fair bits.
        trng = ElementaryTrng(fast_ring(sigma=10.0), reference_period_ps=1_000_000.0)
        assert trng.predicted_entropy_per_bit() > 0.99
        bits = trng.generate(2_000, seed=1)
        assert abs(np.mean(bits) - 0.5) < 0.05

    def test_simulation_backend(self, board):
        ring = InverterRingOscillator.on_board(board, 3)
        trng = ElementaryTrng(ring, reference_period_ps=30_000.0, use_simulation=True)
        bits = trng.generate(32, seed=2)
        assert bits.shape == (32,)

    def test_slow_reference_costs_constant_memory_per_bit(self, board):
        """IRO 5C at Q = 0.2 spans ~7e8 oscillator periods per 20 kbit.

        The fast path must not build that timeline: it samples the phase
        walk, whose footprint is a few arrays of one float per bit.
        """
        ring = InverterRingOscillator.on_board(board, 5)
        trng = ElementaryTrng(
            ring,
            reference_period_for_q(
                ring.predicted_period_ps(), ring.predicted_period_jitter_ps(), 0.2
            ),
        )
        tracemalloc.start()
        try:
            bits = trng.generate(20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bits.shape == (20_000,)
        assert peak < 16 * 2**20

    def test_bit_count_validation(self):
        trng = ElementaryTrng(fast_ring(), reference_period_ps=20_000.0)
        with pytest.raises(ValueError):
            trng.generate(0)

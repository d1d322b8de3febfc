"""Entropy and bias estimators."""

import numpy as np
import pytest

from repro.stats.entropy import (
    bias,
    markov_entropy_per_bit,
    min_entropy_per_bit,
    shannon_entropy_per_bit,
)


def biased_bits(p_one, count=20_000, seed=0):
    return (np.random.default_rng(seed).random(count) < p_one).astype(int)


class TestBias:
    def test_balanced(self):
        assert bias(biased_bits(0.5)) == pytest.approx(0.0, abs=0.01)

    def test_biased(self):
        assert bias(biased_bits(0.7)) == pytest.approx(0.2, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            bias([0, 1, 2])
        with pytest.raises(ValueError):
            bias([])


class TestShannonEntropy:
    def test_fair_source(self):
        assert shannon_entropy_per_bit(biased_bits(0.5)) == pytest.approx(1.0, abs=0.001)

    def test_biased_source(self):
        # H(0.9) = 0.469 bits.
        assert shannon_entropy_per_bit(biased_bits(0.9)) == pytest.approx(0.469, abs=0.02)

    def test_constant_source(self):
        assert shannon_entropy_per_bit(np.ones(100, dtype=int)) == 0.0


class TestMinEntropy:
    def test_fair_source(self):
        assert min_entropy_per_bit(biased_bits(0.5)) == pytest.approx(1.0, abs=0.01)

    def test_biased_source(self):
        assert min_entropy_per_bit(biased_bits(0.75)) == pytest.approx(
            -np.log2(0.75), abs=0.02
        )

    def test_below_shannon(self):
        bits = biased_bits(0.8)
        assert min_entropy_per_bit(bits) < shannon_entropy_per_bit(bits)

    def test_constant_source(self):
        assert min_entropy_per_bit(np.zeros(100, dtype=int)) == 0.0


class TestMarkovEntropy:
    def test_iid_source_full_entropy(self):
        assert markov_entropy_per_bit(biased_bits(0.5)) == pytest.approx(1.0, abs=0.002)

    def test_alternating_sequence_zero(self):
        bits = np.tile([0, 1], 5000)
        assert markov_entropy_per_bit(bits) == pytest.approx(0.0, abs=1e-6)

    def test_sticky_source_detected(self):
        # Markov chain that repeats the previous bit 90 % of the time:
        # memoryless entropy 1.0, Markov entropy H(0.9) = 0.469.
        rng = np.random.default_rng(1)
        bits = [0]
        for _ in range(30_000):
            bits.append(bits[-1] if rng.random() < 0.9 else 1 - bits[-1])
        bits = np.asarray(bits)
        assert shannon_entropy_per_bit(bits) == pytest.approx(1.0, abs=0.01)
        assert markov_entropy_per_bit(bits) == pytest.approx(0.469, abs=0.02)

    def test_needs_two_bits(self):
        with pytest.raises(ValueError):
            markov_entropy_per_bit([1])

"""Property-based tests for statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.descriptive import normalized_frequencies, relative_standard_deviation
from repro.stats.entropy import (
    markov_entropy_per_bit,
    min_entropy_per_bit,
    shannon_entropy_per_bit,
)

bit_lists = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8).map(
    lambda seeds: np.concatenate(
        [np.random.default_rng(seed).integers(0, 2, 64) for seed in seeds]
    )
)


class TestEntropyBounds:
    @given(bit_lists)
    def test_entropies_in_unit_interval(self, bits):
        assert 0.0 <= shannon_entropy_per_bit(bits) <= 1.0
        assert 0.0 <= min_entropy_per_bit(bits) <= 1.0
        assert 0.0 <= markov_entropy_per_bit(bits) <= 1.0 + 1e-12

    @given(bit_lists)
    def test_min_entropy_never_exceeds_shannon(self, bits):
        assert min_entropy_per_bit(bits) <= shannon_entropy_per_bit(bits) + 1e-12

    @given(bit_lists)
    def test_inversion_invariance(self, bits):
        flipped = 1 - bits
        assert shannon_entropy_per_bit(bits) == pytest.approx(
            shannon_entropy_per_bit(flipped), abs=1e-12
        )
        assert min_entropy_per_bit(bits) == pytest.approx(
            min_entropy_per_bit(flipped), abs=1e-12
        )


class TestDescriptiveProperties:
    @given(
        st.lists(st.floats(1.0, 1e6), min_size=2, max_size=20),
        st.floats(1.0, 1e6),
    )
    def test_normalization_scale_invariance(self, freqs, nominal):
        normalized = normalized_frequencies(freqs, nominal)
        rescaled = normalized_frequencies([2.0 * f for f in freqs], 2.0 * nominal)
        assert np.allclose(normalized, rescaled)

    @given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=20), st.floats(0.5, 2.0))
    def test_sigma_rel_scale_invariance(self, values, scale):
        assert relative_standard_deviation(values) == (
            np.float64(relative_standard_deviation([v * scale for v in values]))
        ) or abs(
            relative_standard_deviation(values)
            - relative_standard_deviation([v * scale for v in values])
        ) < 1e-9

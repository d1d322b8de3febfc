"""Comparison topologies: bit counts, encodings, validation."""

import itertools
import math

import numpy as np
import pytest

from repro.puf.topology import (
    TOPOLOGIES,
    derive_response_bits,
    lehmer_digit_widths,
    response_bit_count,
    validate_topology,
)


class TestBitCounts:
    def test_neighbor(self):
        assert response_bit_count(32, "neighbor") == 31

    def test_allpairs(self):
        assert response_bit_count(8, "allpairs") == 28

    def test_lehmer_groups_of_8(self):
        # widths (3, 3, 3, 3, 2, 2, 1) = 17 bits per group
        assert lehmer_digit_widths(8) == (3, 3, 3, 3, 2, 2, 1)
        assert response_bit_count(32, "lehmer", group_size=8) == 4 * 17

    def test_lehmer_bits_cover_ordering_entropy(self):
        for group_size in (2, 4, 8, 16):
            encoded = response_bit_count(group_size, "lehmer", group_size=group_size)
            assert encoded >= math.log2(math.factorial(group_size))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown comparison topology"):
            validate_topology(8, "ring")
        with pytest.raises(ValueError, match="at least 2 rings"):
            validate_topology(1, "neighbor")
        with pytest.raises(ValueError, match="multiple"):
            validate_topology(10, "lehmer", group_size=8)
        with pytest.raises(ValueError, match=">= 2"):
            validate_topology(8, "lehmer", group_size=1)


class TestDeriveBits:
    def test_neighbor_encoding(self):
        frequencies = np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        bits = derive_response_bits(frequencies, "neighbor")
        assert np.array_equal(bits, [[1, 0], [0, 0]])

    def test_allpairs_encoding(self):
        frequencies = np.array([[3.0, 1.0, 2.0]])
        # pairs (0,1), (0,2), (1,2)
        assert np.array_equal(
            derive_response_bits(frequencies, "allpairs"), [[1, 1, 0]]
        )

    def test_lehmer_identity_and_reverse(self):
        ascending = np.array([[1.0, 2.0, 3.0, 4.0]])
        descending = ascending[:, ::-1]
        # ascending ordering: every digit 0 -> all bits 0
        assert not derive_response_bits(ascending, "lehmer", group_size=4).any()
        # descending: digits (3, 2, 1) -> bits 11 10 1
        assert np.array_equal(
            derive_response_bits(descending, "lehmer", group_size=4),
            [[1, 1, 1, 0, 1]],
        )

    def test_lehmer_injective_over_permutations(self):
        """Distinct orderings of one group encode to distinct bit strings."""
        seen = set()
        for permutation in itertools.permutations(range(5)):
            frequencies = np.array([[float(value) for value in permutation]])
            bits = derive_response_bits(frequencies, "lehmer", group_size=5)
            seen.add(tuple(bits[0]))
        assert len(seen) == math.factorial(5)

    def test_bit_width_matches_declaration(self):
        rng = np.random.default_rng(0)
        frequencies = rng.normal(600.0, 5.0, size=(7, 16))
        for topology in TOPOLOGIES:
            bits = derive_response_bits(frequencies, topology)
            assert bits.shape == (7, response_bit_count(16, topology))
            assert bits.dtype == np.uint8

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            derive_response_bits(np.array([1.0, 2.0]), "neighbor")

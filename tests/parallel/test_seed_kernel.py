"""The vectorised seed kernel against its NumPy oracles.

``child_seeds`` must equal ``SeedSequence(root).spawn(n)[i]`` hashed by
``generate_state(1, uint64)``; ``standard_normal_rows`` must equal a loop
of ``default_rng(seed).standard_normal(k)``; and batch manufacturing must
equal a loop of the scalar ``ProcessVariation.sample_device``.  All three
are bit-for-bit identities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.calibration import TABLE2_PROCESS
from repro.fpga.process import ProcessVariation
from repro.parallel.seeds import (
    _VECTOR_MIN_CHILDREN,
    child_seeds,
    spawn_seed_subset,
    spawn_seeds,
    standard_normal_rows,
)

ROOTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**128 + 7, 2**200 + 3)
SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345678901234)


def _oracle_children(root, count):
    return [
        int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(root).spawn(count)
    ]


def _oracle_child(root, index):
    child = np.random.SeedSequence(root, spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


class TestChildSeeds:
    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize(
        "count", [0, 1, 2, _VECTOR_MIN_CHILDREN - 1, _VECTOR_MIN_CHILDREN, 100]
    )
    def test_matches_spawn_on_both_sides_of_the_vector_threshold(self, root, count):
        assert spawn_seeds(root, count) == _oracle_children(root, count)

    @pytest.mark.parametrize("root", ROOTS)
    def test_extreme_indices(self, root):
        indices = [0, 1, 2**32 - 1]
        expected = [_oracle_child(root, index) for index in indices]
        assert child_seeds(root, indices).tolist() == expected
        # The same indices through the vector pass.
        padded = indices * _VECTOR_MIN_CHILDREN
        assert child_seeds(root, padded).tolist() == expected * _VECTOR_MIN_CHILDREN
        assert spawn_seed_subset(root, 2**32, indices) == expected

    def test_returns_uint64(self):
        assert child_seeds(3, np.arange(40)).dtype == np.uint64
        assert child_seeds(3, [5]).dtype == np.uint64

    def test_slices_of_a_fan_out(self):
        whole = spawn_seeds(77, 300)
        assert child_seeds(77, np.arange(120, 300)).tolist() == whole[120:]
        assert spawn_seed_subset(77, 300, [299, 0, 150]) == [whole[299], whole[0], whole[150]]

    @given(
        root=st.integers(0, 2**160),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_against_spawn_keys(self, root, indices):
        expected = [_oracle_child(root, index) for index in indices]
        assert child_seeds(root, indices).tolist() == expected

    def test_rejects_out_of_range_indices_and_roots(self):
        with pytest.raises(IndexError):
            child_seeds(1, [2**32])
        with pytest.raises(IndexError):
            child_seeds(1, [-1])
        with pytest.raises(IndexError):
            child_seeds(1, np.arange(-1, 40))
        with pytest.raises(ValueError):
            child_seeds(-1, [0])
        with pytest.raises(ValueError):
            spawn_seeds(-3, 2)
        with pytest.raises(IndexError):
            spawn_seed_subset(1, 4, [4])


class TestStandardNormalRows:
    @pytest.mark.parametrize("width", [1, 17, 97])
    def test_matches_default_rng_loop(self, width):
        rows = standard_normal_rows(SEEDS, width)
        assert rows.shape == (len(SEEDS), width)
        for seed, row in zip(SEEDS, rows):
            assert np.array_equal(row, np.random.default_rng(seed).standard_normal(width))

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
        width=st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_against_default_rng(self, seeds, width):
        rows = standard_normal_rows(np.array(seeds, dtype=np.uint64), width)
        expected = np.array(
            [np.random.default_rng(seed).standard_normal(width) for seed in seeds]
        )
        assert np.array_equal(rows, expected)

    def test_empty_shapes(self):
        assert standard_normal_rows([], 5).shape == (0, 5)
        assert standard_normal_rows([1, 2], 0).shape == (2, 0)


def _sample_device_loop(process, lut_count, seeds):
    return [process.sample_device(lut_count, int(seed)) for seed in seeds]


class TestSampleDevicesOracle:
    @pytest.mark.parametrize(
        "process",
        [
            TABLE2_PROCESS,
            ProcessVariation(0.0, 0.0178),
            ProcessVariation(0.00157, 0.0),
            ProcessVariation.none(),
            ProcessVariation(0.2, 0.5),
        ],
        ids=["table2", "local-only", "global-only", "none", "clipped"],
    )
    def test_matches_sample_device_loop(self, process):
        """A zero sigma draws nothing in ``sample_device``: the batch must
        skip that layer too, or every later draw shifts."""
        seeds = spawn_seeds(2**64 + 1, 40)
        batch = process.sample_devices(24, seeds)
        for index, device in enumerate(_sample_device_loop(process, 24, seeds)):
            assert batch.global_factors[index] == device.global_factor
            assert np.array_equal(batch.lut_factors[index], device.lut_factors)

    def test_clip_floor_is_reached(self):
        """A wide spread hits the 3-sigma floor, in the batch as in the loop."""
        process = ProcessVariation(0.2, 0.5)
        batch = process.sample_device_batch(64, 50, seed=4)
        assert batch.lut_factors.min() == pytest.approx(1e-3)
        assert batch.global_factors.min() >= 0.4

    def test_fresh_root_draws_a_usable_batch(self):
        batch = TABLE2_PROCESS.sample_device_batch(8, 5, seed=None)
        assert batch.lut_factors.shape == (5, 8)
        assert np.all(batch.lut_factors > 0)

    def test_generator_root_raises(self):
        with pytest.raises(TypeError):
            TABLE2_PROCESS.sample_device_batch(8, 5, seed=np.random.default_rng(0))

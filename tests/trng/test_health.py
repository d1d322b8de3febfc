"""Online health tests."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from repro.trng.health import (
    HealthMonitor,
    adaptive_proportion_cutoff,
    repetition_count_cutoff,
)


class TestCutoffs:
    def test_repetition_cutoff_formula(self):
        assert repetition_count_cutoff(1.0) == 21
        assert repetition_count_cutoff(0.5) == 41

    def test_repetition_cutoff_monotone_in_entropy(self):
        assert repetition_count_cutoff(0.3) > repetition_count_cutoff(0.9)

    def test_proportion_cutoff_bounds(self):
        cutoff = adaptive_proportion_cutoff(1.0, window=512)
        assert 256 < cutoff <= 512

    def test_proportion_cutoff_monotone(self):
        assert adaptive_proportion_cutoff(0.4, 512) > adaptive_proportion_cutoff(0.95, 512)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.2])
    def test_entropy_validation(self, bad):
        with pytest.raises(ValueError):
            repetition_count_cutoff(bad)
        with pytest.raises(ValueError):
            adaptive_proportion_cutoff(bad)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            adaptive_proportion_cutoff(0.9, window=4)

    def test_cutoffs_are_memoised(self):
        adaptive_proportion_cutoff(0.9, 512)
        before = adaptive_proportion_cutoff.cache_info().hits
        assert adaptive_proportion_cutoff(0.9, 512) == adaptive_proportion_cutoff(0.9, 512)
        assert adaptive_proportion_cutoff.cache_info().hits == before + 2
        repetition_count_cutoff(0.9)
        before = repetition_count_cutoff.cache_info().hits
        repetition_count_cutoff(0.9)
        assert repetition_count_cutoff.cache_info().hits == before + 1

    def test_invalid_arguments_raise_on_every_call(self):
        """A failed call is not cached: the second call raises too."""
        for _ in range(2):
            with pytest.raises(ValueError):
                repetition_count_cutoff(1.5)
            with pytest.raises(ValueError):
                repetition_count_cutoff(0.9, alpha_exponent=0)
            with pytest.raises(ValueError):
                adaptive_proportion_cutoff(0.0)
            with pytest.raises(ValueError):
                adaptive_proportion_cutoff(0.9, window=8)


# (window, H grid): every H in 0.01..1.00 on the small windows, a coarser
# grid on the large ones, where one exact quantile takes 25-100 ms.
_FULL_H = tuple(round(0.01 * i, 2) for i in range(1, 101))
_CUTOFF_GRID = (
    (16, _FULL_H),
    (17, _FULL_H),
    (64, _FULL_H),
    (100, _FULL_H),
    (255, _FULL_H),
    (256, _FULL_H),
    (512, _FULL_H),
    (1024, _FULL_H[::5]),
    (2048, _FULL_H[::20] + (1.0,)),
)


class TestExactProportionCutoff:
    """The exact binomial quantile, pinned to scipy's float ``binom.ppf``."""

    @pytest.mark.parametrize("alpha", [10, 20, 30])
    def test_equals_scipy_binom_ppf(self, alpha):
        for window, entropies in _CUTOFF_GRID:
            p = 2.0 ** -np.asarray(entropies)
            reference = stats.binom.ppf(1.0 - 2.0**-alpha, window - 1, p)
            for h, quantile in zip(entropies, reference):
                expected = min(int(quantile) + 1, window)
                assert adaptive_proportion_cutoff(h, window, alpha) == expected, (h, window)

    def test_exact_where_the_float_quantile_ties(self):
        # P(X <= 255) is exactly 1/2 for X ~ B(511, 1/2): the quantile at
        # 1 - 2**-1 is 255, where boost's float quantile gives 256.
        assert adaptive_proportion_cutoff(1.0, 512, 1) == 256
        # P(X = 80) = (2**-0.5)**80 is 2**-40 up to the rounding of p,
        # which makes it slightly larger, so X <= 79 falls short.
        assert adaptive_proportion_cutoff(0.5, 81, 40) == 81

    @pytest.mark.parametrize("h,window,alpha", [(0.9, 16, 20), (0.37, 40, 10), (0.05, 33, 3)])
    def test_equals_a_rational_quantile(self, h, window, alpha):
        n, p = window - 1, Fraction(2.0**-h)
        target = 1 - Fraction(1, 2**alpha)
        cdf, k = Fraction(0), -1
        while cdf < target:
            k += 1
            cdf += comb(n, k) * p**k * (1 - p) ** (n - k)
        assert adaptive_proportion_cutoff(h, window, alpha) == min(k + 1, window)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            adaptive_proportion_cutoff(0.9, 512, 0)


class TestHealthMonitor:
    def test_good_source_stays_healthy(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9)
        bits = np.random.default_rng(0).integers(0, 2, size=100_000)
        monitor.ingest(bits)
        assert monitor.healthy

    def test_stuck_source_raises_repetition_alarm(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9)
        alarms = monitor.ingest(np.ones(200, dtype=int))
        assert any(alarm.test_name == "repetition_count" for alarm in alarms)
        assert not monitor.healthy

    def test_alarm_position_recorded(self):
        monitor = HealthMonitor(claimed_min_entropy=1.0)  # cutoff 21
        alarms = monitor.ingest(np.zeros(50, dtype=int))
        assert alarms[0].position == 20  # 21st identical bit, zero-indexed

    def test_biased_source_raises_proportion_alarm(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9, window=512)
        rng = np.random.default_rng(1)
        biased = (rng.random(50_000) < 0.85).astype(int)
        monitor.ingest(biased)
        assert any(a.test_name == "adaptive_proportion" for a in monitor.alarms)

    def test_mildly_biased_source_tolerated_at_low_claim(self):
        monitor = HealthMonitor(claimed_min_entropy=0.5, window=512)
        rng = np.random.default_rng(2)
        mild = (rng.random(50_000) < 0.6).astype(int)
        monitor.ingest(mild)
        assert monitor.healthy

    def test_streaming_equivalent_to_batch(self):
        bits = np.random.default_rng(3).integers(0, 2, size=10_000)
        batch = HealthMonitor()
        batch.ingest(bits)
        streamed = HealthMonitor()
        for chunk in np.array_split(bits, 37):
            streamed.ingest(chunk)
        assert len(batch.alarms) == len(streamed.alarms)

    def test_reset_clears_state(self):
        monitor = HealthMonitor()
        monitor.ingest(np.ones(100, dtype=int))
        assert not monitor.healthy
        monitor.reset()
        assert monitor.healthy
        assert monitor.alarms == []

    def test_check_block_convenience(self):
        monitor = HealthMonitor()
        assert monitor.check_block(np.random.default_rng(4).integers(0, 2, 5000))
        assert not monitor.check_block(np.zeros(100, dtype=int))

    def test_input_validation(self):
        monitor = HealthMonitor()
        with pytest.raises(ValueError):
            monitor.ingest(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            monitor.ingest(np.ones((4, 4)))

    @pytest.mark.parametrize(
        "bad",
        [
            [0.7, 1.2, 0.3] * 10,
            np.array([0.0, 1.0, 0.5]),
            [0, 1, -1],
            np.array([1, 0, -1], dtype=np.int8),
            np.array([0, 2, 1], dtype=np.uint8),
            [0, 1, 2],
            np.array([0, 1, 2**40], dtype=np.int64),
        ],
    )
    def test_rejects_non_bits_before_casting(self, bad):
        monitor = HealthMonitor()
        with pytest.raises(ValueError):
            monitor.ingest(bad)
        assert monitor._position == 0

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_accepts_exact_bits_of_any_dtype(self, dtype):
        bits = np.random.default_rng(6).integers(0, 2, 1000)
        reference = HealthMonitor()
        reference.ingest(bits)
        monitor = HealthMonitor()
        assert monitor.ingest(bits.astype(dtype)) == reference.alarms
        assert monitor._position == 1000

    def test_detects_injection_locked_trng(self):
        """End-to-end: a diffusion-free multi-phase model is periodic and
        trips the repetition test once the pattern has a long run."""
        from repro.trng.multiphase import MultiphaseModel

        locked = MultiphaseModel(2100.0, 21, 0.0, 150_000.0)
        bits = locked.generate(5_000, seed=5)
        monitor = HealthMonitor(claimed_min_entropy=0.9)
        healthy = monitor.check_block(bits)
        # Either a long run trips the RCT, or the window proportion trips.
        assert not healthy or 0.4 < np.mean(bits) < 0.6


class ScalarHealthMonitor(HealthMonitor):
    """Bit-at-a-time reference implementation of ``ingest``.

    This is the original scalar algorithm the vectorized monitor must
    reproduce exactly — alarms, positions, details, ordering and the
    carry state across arbitrary chunk boundaries.
    """

    def ingest(self, bits):
        from repro.trng.health import HealthAlarm

        array = np.asarray(bits, dtype=int)
        if array.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if array.size and not np.all((array == 0) | (array == 1)):
            raise ValueError("bits must be 0 or 1")
        new_alarms = []
        for bit in array:
            bit = int(bit)
            # repetition count
            if bit == self._last_bit:
                self._run_length += 1
            else:
                self._last_bit = bit
                self._run_length = 1
            if self._run_length == self.repetition_cutoff:
                new_alarms.append(
                    HealthAlarm(
                        test_name="repetition_count",
                        position=self._position,
                        detail=f"{self._run_length} identical bits (cutoff "
                        f"{self.repetition_cutoff})",
                    )
                )
                self._run_length = 0
                self._last_bit = -1
            # adaptive proportion
            if self._window_position == 0:
                self._window_reference = bit
                self._window_count = 1
                self._window_position = 1
            else:
                if bit == self._window_reference:
                    self._window_count += 1
                self._window_position += 1
                if self._window_position >= self.window:
                    if self._window_count >= self.proportion_cutoff:
                        new_alarms.append(
                            HealthAlarm(
                                test_name="adaptive_proportion",
                                position=self._position,
                                detail=f"{self._window_count}/{self.window} "
                                f"occurrences of {self._window_reference} (cutoff "
                                f"{self.proportion_cutoff})",
                            )
                        )
                    self._window_position = 0
            self._position += 1
        self.alarms.extend(new_alarms)
        return new_alarms


class TestVectorizedEquivalence:
    """The vectorized ``ingest`` must match the scalar reference exactly."""

    def _assert_equivalent(self, bits, chunk_rng, window=64, entropy=0.9):
        vectorized = HealthMonitor(claimed_min_entropy=entropy, window=window)
        scalar = ScalarHealthMonitor(claimed_min_entropy=entropy, window=window)
        position = 0
        while position < len(bits):
            step = int(chunk_rng.integers(1, 3 * window))
            chunk = bits[position : position + step]
            assert vectorized.ingest(chunk) == scalar.ingest(chunk)
            position += step
        assert vectorized.alarms == scalar.alarms
        assert vectorized._position == scalar._position
        assert vectorized._last_bit == scalar._last_bit
        assert vectorized._run_length == scalar._run_length
        # carry-window state only matters while a window is open
        assert vectorized._window_position == scalar._window_position
        if vectorized._window_position > 0:
            assert vectorized._window_reference == scalar._window_reference
            assert vectorized._window_count == scalar._window_count

    def test_unbiased_stream(self):
        rng = np.random.default_rng(10)
        self._assert_equivalent(rng.integers(0, 2, 5_000), rng)

    def test_biased_stream_raises_matching_proportion_alarms(self):
        rng = np.random.default_rng(11)
        self._assert_equivalent((rng.random(5_000) < 0.8).astype(int), rng)

    def test_sparse_flips_raise_matching_repetition_alarms(self):
        rng = np.random.default_rng(12)
        bits = np.zeros(5_000, dtype=int)
        bits[rng.random(5_000) < 0.02] = 1
        self._assert_equivalent(bits, rng)

    def test_constant_stream(self):
        rng = np.random.default_rng(13)
        self._assert_equivalent(np.ones(2_000, dtype=int), rng)

    def test_run_straddling_chunk_boundary(self):
        rng = np.random.default_rng(14)
        bits = np.concatenate(
            [np.zeros(150, dtype=int), rng.integers(0, 2, 700), np.ones(90, dtype=int)]
        )
        self._assert_equivalent(bits, rng)

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_multi_window_chunks(self, dtype):
        """Chunks spanning many windows, with a carry window open at
        either end: the full windows are counted in one pass."""
        rng = np.random.default_rng(17)
        bits = np.concatenate(
            [
                rng.integers(0, 2, 3_000),
                (rng.random(3_000) < 0.85).astype(int),  # proportion alarms
                (rng.random(3_000) < 0.15).astype(int),  # ... of the other value
                rng.integers(0, 2, 1_000),
            ]
        ).astype(dtype)
        vectorized = HealthMonitor(window=64)
        scalar = ScalarHealthMonitor(window=64)
        position = 0
        while position < bits.size:
            step = int(rng.integers(5 * 64, 20 * 64))
            chunk = bits[position : position + step]
            assert vectorized.ingest(chunk) == scalar.ingest(chunk)
            position += step
        assert vectorized.alarms == scalar.alarms
        references = {
            alarm.detail.split()[3]
            for alarm in vectorized.alarms
            if alarm.test_name == "adaptive_proportion"
        }
        assert references == {"0", "1"}
        assert vectorized.snapshot() == (
            len(scalar.alarms),
            scalar._position,
            scalar._last_bit,
            scalar._run_length,
            scalar._window_reference,
            scalar._window_count,
            scalar._window_position,
        )

    def test_single_bit_chunks(self):
        bits = np.concatenate([np.zeros(40, dtype=int), np.array([1, 0, 1, 0, 1])])
        vectorized = HealthMonitor(window=16)
        scalar = ScalarHealthMonitor(window=16)
        for bit in bits:
            assert vectorized.ingest([int(bit)]) == scalar.ingest([int(bit)])
        assert vectorized.alarms == scalar.alarms

    def test_empty_chunk_is_a_no_op(self):
        monitor = HealthMonitor()
        monitor.ingest(np.zeros(10, dtype=int))
        state = (monitor._position, monitor._last_bit, monitor._run_length)
        assert monitor.ingest(np.zeros(0, dtype=int)) == []
        assert (monitor._position, monitor._last_bit, monitor._run_length) == state

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_block_aligned_chunks(self, dtype):
        """The serving pool's shape: 512-bit chunks, 512-bit windows."""
        rng = np.random.default_rng(15)
        bits = np.concatenate(
            [
                rng.integers(0, 2, 2048),
                (rng.random(2048) < 0.8).astype(int),  # proportion alarms
                np.zeros(100, dtype=int),  # repetition alarms
                rng.integers(0, 2, 1948),
            ]
        ).astype(dtype)
        vectorized = HealthMonitor(window=512)
        scalar = ScalarHealthMonitor(window=512)
        for start in range(0, bits.size, 512):
            chunk = bits[start : start + 512]
            assert vectorized.ingest(chunk) == scalar.ingest(chunk)
        assert vectorized.alarms == scalar.alarms
        assert {a.test_name for a in vectorized.alarms} == {
            "repetition_count",
            "adaptive_proportion",
        }
        assert (vectorized._last_bit, vectorized._run_length) == (
            scalar._last_bit,
            scalar._run_length,
        )

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_runs_straddling_aligned_chunks(self, dtype):
        """Runs that start in one 64-bit chunk and end one or more chunks
        later, with and without alarms on the way."""
        rng = np.random.default_rng(16)
        pieces = []
        for length in (30, 64, 90, 130, 10, 200):
            pieces.append(rng.integers(0, 2, int(rng.integers(5, 40))))
            pieces.append(np.full(length, length % 2))
        bits = np.concatenate(pieces).astype(dtype)
        vectorized = HealthMonitor(window=64)
        scalar = ScalarHealthMonitor(window=64)
        for start in range(0, bits.size, 64):
            chunk = bits[start : start + 64]
            assert vectorized.ingest(chunk) == scalar.ingest(chunk)
        assert vectorized.alarms == scalar.alarms
        assert (vectorized._last_bit, vectorized._run_length) == (
            scalar._last_bit,
            scalar._run_length,
        )

    def test_alarms_on_the_last_bit_of_a_chunk(self):
        """Both tests fire on a chunk's final bit; the carry restarts."""
        monitor = HealthMonitor(claimed_min_entropy=1.0, window=42)  # RCT cutoff 21
        scalar = ScalarHealthMonitor(claimed_min_entropy=1.0, window=42)
        chunks = [np.zeros(21, dtype=int), np.zeros(21, dtype=int), np.ones(21, dtype=int)]
        for chunk in chunks:
            alarms = monitor.ingest(chunk)
            assert alarms == scalar.ingest(chunk)
            assert alarms and alarms[-1].position == monitor._position - 1
            assert (monitor._last_bit, monitor._run_length) == (-1, 0)
            assert (scalar._last_bit, scalar._run_length) == (-1, 0)
        assert [a.test_name for a in monitor.alarms] == [
            "repetition_count",
            "repetition_count",
            "adaptive_proportion",
            "repetition_count",
        ]

    def test_restore_rolls_back_to_a_snapshot(self):
        monitor = HealthMonitor(window=64)
        monitor.ingest(np.random.default_rng(18).integers(0, 2, 100))
        snapshot = monitor.snapshot()
        alarms = list(monitor.alarms)
        assert monitor.ingest(np.zeros(300, dtype=int))
        monitor.restore(snapshot)
        assert monitor.snapshot() == snapshot
        assert monitor.alarms == alarms

    def test_interleaved_order_within_one_bit(self):
        """When both tests fire on the same bit, repetition comes first."""
        monitor = HealthMonitor(claimed_min_entropy=1.0, window=21)  # both cutoffs 21
        alarms = monitor.ingest(np.zeros(21, dtype=int))
        names = [alarm.test_name for alarm in alarms]
        positions = [alarm.position for alarm in alarms]
        assert names == ["repetition_count", "adaptive_proportion"]
        assert positions == [20, 20]

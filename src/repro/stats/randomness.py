"""A compact randomness test battery for TRNG output.

A NIST-SP800-22-flavoured subset sized for simulation-scale sequences:
monobit frequency, block frequency, runs, longest run in a block,
lag autocorrelation and cumulative sums.  Each test returns a p-value
under the null hypothesis "the sequence is iid uniform"; the battery
aggregates them.

These tests evaluate *statistical* quality only — they are necessary, not
sufficient, for cryptographic use, which matches how the paper positions
its entropy-source analysis.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Sequence

import numpy as np


def _igamc(a: float, x: float) -> float:
    """The regularised upper incomplete gamma function ``Q(a, x)`` (NIST's ``igamc``).

    ``scipy.special`` is imported here, at the first test that needs it,
    so importing the battery loads no scipy.
    """
    from scipy.special import gammaincc

    return float(gammaincc(a, x))


@dataclasses.dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test."""

    name: str
    p_value: float
    statistic: float
    passed: bool

    @classmethod
    def from_p_value(cls, name: str, p_value: float, statistic: float, alpha: float) -> "TestResult":
        return cls(
            name=name,
            p_value=float(p_value),
            statistic=float(statistic),
            passed=bool(p_value >= alpha),
        )


@dataclasses.dataclass(frozen=True)
class BatteryReport:
    """Aggregated outcome of the whole battery."""

    results: Dict[str, TestResult]
    alpha: float

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.results.values())

    @property
    def failed_tests(self) -> List[str]:
        return [name for name, result in self.results.items() if not result.passed]

    def summary(self) -> str:
        lines = []
        for name, result in self.results.items():
            verdict = "PASS" if result.passed else "FAIL"
            lines.append(f"{name:<22} p={result.p_value:8.5f}  {verdict}")
        return "\n".join(lines)


def _as_bits(bits: Sequence[int], minimum: int) -> np.ndarray:
    array = np.asarray(bits, dtype=int)
    if array.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if array.size < minimum:
        raise ValueError(f"need at least {minimum} bits, got {array.size}")
    if not np.all((array == 0) | (array == 1)):
        raise ValueError("bit stream must contain only 0s and 1s")
    return array


# ----------------------------------------------------------------------
# individual tests
# ----------------------------------------------------------------------
def monobit_test(bits: Sequence[int], alpha: float = 0.01) -> TestResult:
    """NIST frequency (monobit) test."""
    array = _as_bits(bits, minimum=100)
    signed = 2 * array - 1
    statistic = abs(float(np.sum(signed))) / math.sqrt(array.size)
    p_value = math.erfc(statistic / math.sqrt(2.0))
    return TestResult.from_p_value("monobit", p_value, statistic, alpha)


def block_frequency_test(bits: Sequence[int], block_size: int = 128, alpha: float = 0.01) -> TestResult:
    """NIST block-frequency test."""
    array = _as_bits(bits, minimum=block_size * 4)
    block_count = array.size // block_size
    blocks = array[: block_count * block_size].reshape(block_count, block_size)
    proportions = blocks.mean(axis=1)
    chi_squared = 4.0 * block_size * float(np.sum((proportions - 0.5) ** 2))
    p_value = _igamc(block_count / 2.0, chi_squared / 2.0)
    return TestResult.from_p_value("block_frequency", p_value, chi_squared, alpha)


def runs_test(bits: Sequence[int], alpha: float = 0.01) -> TestResult:
    """NIST runs test (number of 0/1 alternations)."""
    array = _as_bits(bits, minimum=100)
    proportion = float(np.mean(array))
    # Pre-condition of the NIST runs test: the monobit statistic must be sane.
    if abs(proportion - 0.5) >= 2.0 / math.sqrt(array.size):
        return TestResult.from_p_value("runs", 0.0, float("inf"), alpha)
    run_count = 1 + int(np.count_nonzero(np.diff(array)))
    expected_term = 2.0 * array.size * proportion * (1.0 - proportion)
    statistic = abs(run_count - expected_term)
    denominator = 2.0 * math.sqrt(2.0 * array.size) * proportion * (1.0 - proportion)
    p_value = math.erfc(statistic / denominator)
    return TestResult.from_p_value("runs", p_value, statistic, alpha)


_LONGEST_RUN_TABLE = {
    8: ((1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    128: ((4, 5, 6, 7, 8, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    10000: ((10, 11, 12, 13, 14, 15, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}


def longest_run_test(bits: Sequence[int], alpha: float = 0.01) -> TestResult:
    """NIST longest-run-of-ones-in-a-block test."""
    array = _as_bits(bits, minimum=128)
    if array.size < 6272:
        block_size = 8
    elif array.size < 750000:
        block_size = 128
    else:
        block_size = 10000
    categories, probabilities = _LONGEST_RUN_TABLE[block_size]
    block_count = array.size // block_size
    blocks = array[: block_count * block_size].reshape(block_count, block_size)

    longest_runs = np.zeros(block_count, dtype=int)
    for index, block in enumerate(blocks):
        longest = 0
        current = 0
        for bit in block:
            current = current + 1 if bit == 1 else 0
            longest = max(longest, current)
        longest_runs[index] = longest

    counts = np.zeros(len(categories), dtype=float)
    low, high = categories[0], categories[-1]
    clipped = np.clip(longest_runs, low, high)
    for index, category in enumerate(categories):
        counts[index] = np.count_nonzero(clipped == category)
    expected = block_count * np.asarray(probabilities)
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = _igamc((len(categories) - 1) / 2.0, chi_squared / 2.0)
    return TestResult.from_p_value("longest_run", p_value, chi_squared, alpha)


def autocorrelation_test(bits: Sequence[int], lag: int = 1, alpha: float = 0.01) -> TestResult:
    """Serial correlation at a given lag (z-test on matching pairs)."""
    array = _as_bits(bits, minimum=100)
    if lag < 1 or lag >= array.size:
        raise ValueError(f"lag must be in [1, {array.size - 1}], got {lag}")
    matches = int(np.count_nonzero(array[:-lag] == array[lag:]))
    pair_count = array.size - lag
    statistic = (matches - pair_count / 2.0) / math.sqrt(pair_count / 4.0)
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return TestResult.from_p_value(f"autocorrelation_lag{lag}", p_value, statistic, alpha)


def cumulative_sums_test(bits: Sequence[int], alpha: float = 0.01) -> TestResult:
    """NIST cumulative-sums (forward) test."""
    array = _as_bits(bits, minimum=100)
    signed = 2 * array - 1
    partial = np.cumsum(signed)
    z = float(np.max(np.abs(partial)))
    n = array.size
    if z == 0.0:
        return TestResult.from_p_value("cumulative_sums", 0.0, 0.0, alpha)
    from scipy.special import ndtr  # the standard normal CDF that scipy.stats.norm.cdf evaluates

    total = 0.0
    sqrt_n = math.sqrt(n)
    start_one = int(math.floor((-n / z + 1.0) / 4.0))
    end_one = int(math.floor((n / z - 1.0) / 4.0))
    for k in range(start_one, end_one + 1):
        total += ndtr((4 * k + 1) * z / sqrt_n)
        total -= ndtr((4 * k - 1) * z / sqrt_n)
    start_two = int(math.floor((-n / z - 3.0) / 4.0))
    for k in range(start_two, end_one + 1):
        total -= ndtr((4 * k + 3) * z / sqrt_n)
        total += ndtr((4 * k + 1) * z / sqrt_n)
    p_value = 1.0 - total
    p_value = min(max(p_value, 0.0), 1.0)
    return TestResult.from_p_value("cumulative_sums", p_value, z, alpha)


def _pattern_proportions(array: np.ndarray, length: int) -> np.ndarray:
    """Overlapping ``length``-bit pattern frequencies (cyclic, NIST style)."""
    if length == 0:
        return np.ones(1)
    extended = np.concatenate([array, array[: length - 1]])
    weights = 1 << np.arange(length - 1, -1, -1)
    windows = np.lib.stride_tricks.sliding_window_view(extended, length)
    codes = windows @ weights
    counts = np.bincount(codes, minlength=1 << length).astype(float)
    return counts


def _psi_squared(array: np.ndarray, length: int) -> float:
    """NIST psi^2 statistic for overlapping ``length``-bit patterns."""
    if length <= 0:
        return 0.0
    counts = _pattern_proportions(array, length)
    n = array.size
    return float((1 << length) / n * np.sum(counts**2) - n)


def serial_test(bits: Sequence[int], pattern_length: int = 3, alpha: float = 0.01) -> TestResult:
    """NIST serial test: uniformity of overlapping m-bit patterns.

    Returns the first of the two NIST p-values (``del psi^2``); with a
    balanced-but-patterned source this catches what monobit cannot.
    """
    array = _as_bits(bits, minimum=100)
    if pattern_length < 2 or pattern_length > int(math.log2(array.size)) - 2:
        raise ValueError(
            f"pattern length {pattern_length} unsupported for {array.size} bits"
        )
    psi_m = _psi_squared(array, pattern_length)
    psi_m1 = _psi_squared(array, pattern_length - 1)
    psi_m2 = _psi_squared(array, pattern_length - 2)
    delta1 = psi_m - psi_m1
    delta2 = psi_m - 2.0 * psi_m1 + psi_m2
    p_value1 = _igamc(2 ** (pattern_length - 2), delta1 / 2.0)
    p_value2 = _igamc(2 ** (pattern_length - 3), delta2 / 2.0)
    p_value = min(p_value1, p_value2)
    return TestResult.from_p_value(f"serial_m{pattern_length}", p_value, delta1, alpha)


def approximate_entropy_test(
    bits: Sequence[int], pattern_length: int = 2, alpha: float = 0.01
) -> TestResult:
    """NIST approximate-entropy test (ApEn of overlapping patterns)."""
    array = _as_bits(bits, minimum=100)
    if pattern_length < 1 or pattern_length > int(math.log2(array.size)) - 5:
        raise ValueError(
            f"pattern length {pattern_length} unsupported for {array.size} bits"
        )
    n = array.size

    def phi(length: int) -> float:
        counts = _pattern_proportions(array, length)
        proportions = counts[counts > 0] / n
        return float(np.sum(proportions * np.log(proportions)))

    ap_en = phi(pattern_length) - phi(pattern_length + 1)
    chi_squared = 2.0 * n * (math.log(2.0) - ap_en)
    p_value = _igamc(2 ** (pattern_length - 1), chi_squared / 2.0)
    return TestResult.from_p_value(
        f"approximate_entropy_m{pattern_length}", p_value, chi_squared, alpha
    )


def dft_spectral_test(bits: Sequence[int], alpha: float = 0.01) -> TestResult:
    """NIST discrete-Fourier-transform (spectral) test.

    Detects periodic features: the fraction of DFT peaks below the 95 %
    threshold should be ~0.95 for random data.
    """
    array = _as_bits(bits, minimum=1000)
    signed = 2 * array - 1
    transform = np.abs(np.fft.rfft(signed))[: array.size // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * array.size)
    expected_below = 0.95 * transform.size
    observed_below = float(np.count_nonzero(transform < threshold))
    statistic = (observed_below - expected_below) / math.sqrt(
        transform.size * 0.95 * 0.05
    )
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return TestResult.from_p_value("dft_spectral", p_value, statistic, alpha)


_DEFAULT_TESTS: Dict[str, Callable[..., TestResult]] = {
    "monobit": monobit_test,
    "block_frequency": block_frequency_test,
    "runs": runs_test,
    "longest_run": longest_run_test,
    "autocorrelation_lag1": lambda bits, alpha: autocorrelation_test(bits, lag=1, alpha=alpha),
    "autocorrelation_lag2": lambda bits, alpha: autocorrelation_test(bits, lag=2, alpha=alpha),
    "cumulative_sums": cumulative_sums_test,
    "serial_m3": lambda bits, alpha: serial_test(bits, pattern_length=3, alpha=alpha),
    "approximate_entropy_m2": lambda bits, alpha: approximate_entropy_test(
        bits, pattern_length=2, alpha=alpha
    ),
    "dft_spectral": dft_spectral_test,
}


def run_battery(bits: Sequence[int], alpha: float = 0.01) -> BatteryReport:
    """Run the full battery and aggregate the verdicts."""
    results = {
        name: test(bits, alpha=alpha) for name, test in _DEFAULT_TESTS.items()
    }
    return BatteryReport(results=results, alpha=alpha)

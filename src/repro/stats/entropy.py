"""Entropy and bias estimators for TRNG bit streams.

The paper's motivation is TRNG quality, so the downstream layer needs the
standard estimators: Shannon entropy per bit, min-entropy per bit (the
conservative cryptographic figure), first-order bias, and a Markov
(first-order conditional) entropy that catches serial correlation a
memoryless estimate misses.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _as_bits(bits: Sequence[int]) -> np.ndarray:
    array = np.asarray(bits, dtype=int)
    if array.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if array.size == 0:
        raise ValueError("bit stream is empty")
    if not np.all((array == 0) | (array == 1)):
        raise ValueError("bit stream must contain only 0s and 1s")
    return array


def bias(bits: Sequence[int]) -> float:
    """First-order bias: ``P(1) - 1/2`` (0 for a perfect source)."""
    array = _as_bits(bits)
    return float(np.mean(array) - 0.5)


def _binary_entropy(p_one: float) -> float:
    if p_one <= 0.0 or p_one >= 1.0:
        return 0.0
    p_zero = 1.0 - p_one
    return -(p_one * math.log2(p_one) + p_zero * math.log2(p_zero))


def shannon_entropy_per_bit(bits: Sequence[int]) -> float:
    """Memoryless Shannon entropy per output bit, in [0, 1]."""
    array = _as_bits(bits)
    return _binary_entropy(float(np.mean(array)))


def min_entropy_per_bit(bits: Sequence[int]) -> float:
    """Min-entropy per bit: ``-log2(max(P(0), P(1)))``.

    The conservative figure cryptographic standards (AIS31, SP 800-90B)
    care about; 1.0 only for a perfectly balanced source.
    """
    array = _as_bits(bits)
    p_one = float(np.mean(array))
    p_max = max(p_one, 1.0 - p_one)
    if p_max >= 1.0:
        return 0.0
    return -math.log2(p_max)


def markov_entropy_per_bit(bits: Sequence[int]) -> float:
    """First-order Markov entropy rate per bit.

    Conditions on the previous bit: ``H = sum_s P(s) * H(P(1 | s))``.
    Detects serial correlation (e.g. sampling an oscillator too fast)
    that leaves the memoryless entropy at 1.0.
    """
    array = _as_bits(bits)
    if array.size < 2:
        raise ValueError("need at least two bits for Markov entropy")
    previous = array[:-1]
    current = array[1:]
    entropy = 0.0
    for state in (0, 1):
        mask = previous == state
        state_probability = float(np.mean(mask))
        if state_probability == 0.0:
            continue
        p_one_given_state = float(np.mean(current[mask]))
        entropy += state_probability * _binary_entropy(p_one_given_state)
    return entropy

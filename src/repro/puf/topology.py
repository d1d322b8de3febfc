"""Comparison topologies: ring frequencies -> response bits.

A RO PUF never exposes absolute frequencies — it compares them.  The
comparison *topology* fixes which pairs are compared and how orderings
are encoded, trading bits-per-ring against bit independence:

``neighbor``
    Compare adjacent rings: ``bit_r = [f_r > f_{r+1}]`` — R-1 bits.
    The classic Suh-Devadas arrangement; adjacent bits share a ring,
    so they are weakly negatively correlated but unbiased.

``allpairs``
    Every unordered pair once — C(R, 2) bits.  Maximum raw bits, but
    only ``log2(R!)`` of them are independent; the surplus is pure
    redundancy (useful as an error-correcting margin, not as entropy).

``lehmer``
    Split the rings into groups of ``group_size`` and binary-encode the
    Lehmer code of each group's frequency ordering (digit ``i`` counts
    later rings slower than ring ``i``).  Extracts the full
    ``log2(S!)`` bits a group's ordering carries — the dense encoding
    of the Maiti-Schaumont ordering-based constructions.

Everything is vectorized over a ``(device, ring)`` frequency matrix and
returns a ``(device, bit)`` uint8 matrix; ties resolve to 0 (strict
``>``), a measure-zero event for real-valued frequencies.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Recognized comparison topologies.
TOPOLOGIES: Tuple[str, ...] = ("neighbor", "allpairs", "lehmer")


def validate_topology(ring_count: int, topology: str, group_size: int = 8) -> None:
    """Raise ``ValueError`` unless the topology fits the ring count."""
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown comparison topology {topology!r}; pick one of {TOPOLOGIES}"
        )
    if ring_count < 2:
        raise ValueError(f"a comparison PUF needs at least 2 rings, got {ring_count}")
    if topology == "lehmer":
        if group_size < 2:
            raise ValueError(f"Lehmer group size must be >= 2, got {group_size}")
        if ring_count % group_size != 0:
            raise ValueError(
                f"ring count {ring_count} is not a multiple of the Lehmer "
                f"group size {group_size}"
            )


def lehmer_digit_widths(group_size: int) -> Tuple[int, ...]:
    """Bits encoding each Lehmer digit of a ``group_size`` ordering.

    Digit ``i`` ranges over ``group_size - i`` values; the always-zero
    last digit is dropped.  For groups of 8 this yields
    (3, 3, 3, 3, 2, 2, 1) — 17 bits, against ``log2(8!) ~ 15.3`` bits
    of ordering entropy.
    """
    if group_size < 2:
        raise ValueError(f"Lehmer group size must be >= 2, got {group_size}")
    return tuple(
        (group_size - position - 1).bit_length() for position in range(group_size - 1)
    )


def response_bit_count(ring_count: int, topology: str, group_size: int = 8) -> int:
    """Response bits one device yields under a topology."""
    validate_topology(ring_count, topology, group_size)
    if topology == "neighbor":
        return ring_count - 1
    if topology == "allpairs":
        return ring_count * (ring_count - 1) // 2
    return (ring_count // group_size) * sum(lehmer_digit_widths(group_size))


def derive_response_bits(
    frequencies_mhz: np.ndarray, topology: str = "neighbor", group_size: int = 8
) -> np.ndarray:
    """Map a ``(device, ring)`` frequency matrix to ``(device, bit)`` responses."""
    frequencies = np.asarray(frequencies_mhz, dtype=float)
    if frequencies.ndim != 2:
        raise ValueError(
            f"frequencies must be 2-D (device, ring), got shape {frequencies.shape}"
        )
    ring_count = frequencies.shape[1]
    validate_topology(ring_count, topology, group_size)
    if topology == "neighbor":
        return (frequencies[:, :-1] > frequencies[:, 1:]).astype(np.uint8)
    if topology == "allpairs":
        first, second = np.triu_indices(ring_count, k=1)
        return (frequencies[:, first] > frequencies[:, second]).astype(np.uint8)
    return _lehmer_bits(frequencies, group_size)


def _lehmer_bits(frequencies: np.ndarray, group_size: int) -> np.ndarray:
    """Binary-encoded Lehmer code of each ring group's frequency ordering."""
    device_count, ring_count = frequencies.shape
    groups = frequencies.reshape(device_count, ring_count // group_size, group_size)
    # greater[..., i, j] == (f_i > f_j); digit i counts strictly slower
    # rings *after* position i, i.e. the upper triangle of each row.
    greater = groups[..., :, None] > groups[..., None, :]
    upper = np.triu(np.ones((group_size, group_size), dtype=bool), k=1)
    digits = np.sum(greater & upper, axis=-1)
    pieces = []
    for position, width in enumerate(lehmer_digit_widths(group_size)):
        shifts = np.arange(width - 1, -1, -1)
        pieces.append(
            ((digits[..., position, None] >> shifts) & 1).astype(np.uint8)
        )
    bits = np.concatenate(pieces, axis=-1)
    return bits.reshape(device_count, -1)

"""Online health tests for TRNG output (AIS-31 / SP 800-90B style).

A deployed TRNG cannot run a statistical battery on every block; it runs
cheap *health tests* continuously and raises an alarm when the source
degrades — exactly the operating-point shifts the paper's robustness
analysis is about.  Two standard tests are implemented:

* **repetition count** — catches a stuck or injection-locked source
  (a run of identical bits longer than chance allows);
* **adaptive proportion** — catches bias drift (too many occurrences of
  one value inside a sliding window).

Cutoffs follow the SP 800-90B construction: for a claimed min-entropy
``H`` per bit, the repetition cutoff is ``1 + ceil(20 / H)`` (false
alarm ~2^-20) and the adaptive-proportion cutoff is the exact binomial
quantile at the same significance.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class HealthAlarm:
    """One raised alarm."""

    test_name: str
    position: int
    detail: str


@functools.lru_cache(maxsize=256)
def repetition_count_cutoff(min_entropy_per_bit: float, alpha_exponent: int = 20) -> int:
    """SP 800-90B repetition-count cutoff ``C = 1 + ceil(a / H)``."""
    if not (0.0 < min_entropy_per_bit <= 1.0):
        raise ValueError(f"min-entropy must be in (0, 1], got {min_entropy_per_bit}")
    if alpha_exponent < 1:
        raise ValueError("alpha exponent must be positive")
    return 1 + math.ceil(alpha_exponent / min_entropy_per_bit)


@functools.lru_cache(maxsize=256)
def adaptive_proportion_cutoff(
    min_entropy_per_bit: float, window: int = 512, alpha_exponent: int = 20
) -> int:
    """SP 800-90B adaptive-proportion cutoff ``C = 1 + q``, at most ``window``.

    ``q`` is the exact binomial quantile: the least ``k`` with
    ``P(X <= k) >= 1 - 2**-alpha_exponent`` for ``X ~ B(n, p)``,
    ``n = window - 1`` and ``p = 2**-H``.  As a float, ``p = num / den``
    with ``den`` a power of two, so each term ``C(n, j) num^j (den -
    num)^(n - j)`` of ``den^n P(X = j)`` is an exact int.  ``q`` is then
    the least ``k`` whose upper tail ``sum(j > k)`` stays within
    ``den^n >> alpha_exponent``, found by summing the tail from ``j = n``
    down.  About 5 ms at the default window; the result is cached.

    It equals ``scipy.stats.binom.ppf(1 - 2**-a, n, p) + 1`` (boost's
    float quantile) on windows of 16-2048 bits, ``H`` from 0.01 to 1.00
    and ``a`` of 10, 20 and 30.  The float quantile differs only where a
    double cannot resolve the tie: at ``a = 1`` and ``H = 1`` with ``n``
    odd, where ``P(X <= (n - 1) / 2)`` is exactly 0.5 (the float cutoff
    is one higher on windows 100, 256, 500, 512 and 1024), and at ``a =
    40``, where ``1 - 2**-40`` is within an ulp of the double CDF (one
    lower on windows 81, 126, 251 and 332 of 16-399).  No caller uses
    either; the default is 20.
    """
    if not (0.0 < min_entropy_per_bit <= 1.0):
        raise ValueError(f"min-entropy must be in (0, 1], got {min_entropy_per_bit}")
    if window < 16:
        raise ValueError(f"window must be at least 16, got {window}")
    if alpha_exponent < 1:
        raise ValueError("alpha exponent must be positive")
    num, den = (2.0 ** (-min_entropy_per_bit)).as_integer_ratio()
    rest = den - num
    n = window - 1
    room = den**n >> alpha_exponent  # what the tail may still hold
    k = n
    term = num**n  # den^n P(X = k)
    while term <= room:
        room -= term
        # P(X = k - 1) / P(X = k) = k (den - num) / ((n - k + 1) num); the quotient is exact.
        term = term * (k * rest) // ((n - k + 1) * num)
        k -= 1
    return k + 1


def _as_bits(bits: Sequence[int]) -> np.ndarray:
    """``bits`` as a one-dimensional array of 0/1 values, or ValueError.

    Bool arrays need no check and integer arrays one reduction (the
    bitwise OR of 0/1 values is 0 or 1; a negative value or one above 1
    leaves other bits set).  Anything else — floats, objects — must
    compare equal to 0 or 1 *before* it is cast, so ``0.7`` is rejected
    instead of being truncated to 0.
    """
    array = np.asarray(bits)
    if array.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    kind = array.dtype.kind
    if kind == "b" or array.size == 0:
        return array
    if kind in "iu":
        if int(np.bitwise_or.reduce(array)) >> 1:
            raise ValueError("bits must be 0 or 1")
        return array
    if not np.all((array == 0) | (array == 1)):
        raise ValueError("bits must be 0 or 1")
    return array.astype(np.int8)


def _occurrences(segment: np.ndarray, reference: int) -> int:
    """How many bits of ``segment`` equal ``reference`` (0 or 1)."""
    ones = int(np.count_nonzero(segment))
    return ones if reference == 1 else segment.size - ones


#: The min-entropy claim and adaptive-proportion window a monitor runs
#: at unless configured otherwise (the supervisor always does; the serve
#: pool's ``PoolConfig`` defaults to them).
CLAIMED_MIN_ENTROPY: float = 0.9
PROPORTION_WINDOW: int = 512


class HealthMonitor:
    """Streaming health monitor for a binary source.

    Feed bits with :meth:`ingest`; alarms accumulate in
    :attr:`alarms`.  The monitor is stateless across ``reset()`` calls,
    as a hardware implementation would be after an alarm is serviced.
    """

    def __init__(
        self,
        claimed_min_entropy: float = CLAIMED_MIN_ENTROPY,
        window: int = PROPORTION_WINDOW,
        alpha_exponent: int = 20,
    ) -> None:
        self.claimed_min_entropy = claimed_min_entropy
        self.window = window
        self.repetition_cutoff = repetition_count_cutoff(claimed_min_entropy, alpha_exponent)
        self.proportion_cutoff = adaptive_proportion_cutoff(
            claimed_min_entropy, window, alpha_exponent
        )
        self.reset()

    def reset(self) -> None:
        """Clear all streaming state and alarms."""
        self.alarms: List[HealthAlarm] = []
        self._position = 0
        self._last_bit = -1
        self._run_length = 0
        self._window_reference = -1
        self._window_count = 0
        self._window_position = 0

    def snapshot(self) -> tuple:
        """The streaming state, for :meth:`restore` to roll back to."""
        return (
            len(self.alarms),
            self._position,
            self._last_bit,
            self._run_length,
            self._window_reference,
            self._window_count,
            self._window_position,
        )

    def restore(self, snapshot: tuple) -> None:
        """Undo every :meth:`ingest` since ``snapshot`` was taken (with no
        :meth:`reset` in between): alarms and counters as they were."""
        (
            alarm_count,
            self._position,
            self._last_bit,
            self._run_length,
            self._window_reference,
            self._window_count,
            self._window_position,
        ) = snapshot
        del self.alarms[alarm_count:]

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def ingest(self, bits: Sequence[int]) -> List[HealthAlarm]:
        """Process a chunk of bits; return alarms raised by this chunk.

        Vectorized: repetition counting works on the run boundaries of
        the chunk and adaptive proportion on one count per window, so
        the cost is a few numpy passes instead of a Python loop per bit.
        Alarm positions, details and ordering are identical to a
        bit-at-a-time evaluation (within one bit the repetition test
        fires before the proportion test).

        Bool and integer arrays are checked with one reduction; any
        other input must hold exactly 0 or 1 (``0.7`` is rejected, not
        truncated).
        """
        array = _as_bits(bits)
        if array.size == 0:
            return []
        repetition = self._repetition_alarms(array)
        proportion = self._proportion_alarms(array)
        if repetition and proportion:
            new_alarms = sorted(
                repetition + proportion,
                key=lambda alarm: (
                    alarm.position,
                    0 if alarm.test_name == "repetition_count" else 1,
                ),
            )
        else:
            new_alarms = repetition or proportion
        self._position += array.size
        self.alarms.extend(new_alarms)
        return new_alarms

    def _repetition_alarms(self, array: np.ndarray) -> List[HealthAlarm]:
        """Run-length repetition-count test over one chunk.

        Within a maximal run, the hardware counter restarts after every
        alarm, so a run carrying ``prior`` bits from the previous chunk
        alarms every ``cutoff`` counts of the virtual total and leaves
        ``total % cutoff`` on the counter.  When the first run (with its
        prior), the last run and the longest inner run are all below the
        cutoff, no run can alarm and only the carry is updated.
        """
        cutoff = self.repetition_cutoff
        size = array.size
        # Index of the last bit of every run but the chunk's last one.
        ends = (array[1:] != array[:-1]).nonzero()[0]
        prior = self._run_length if int(array[0]) == self._last_bit else 0
        if ends.size:
            first = prior + int(ends[0]) + 1
            last = size - 1 - int(ends[-1])
            inner = int((ends[1:] - ends[:-1]).max()) if ends.size > 1 else 0
            longest = max(first, last, inner)
        else:
            last = longest = prior + size
        alarms: List[HealthAlarm] = []
        if longest >= cutoff:
            starts = np.concatenate(([0], ends + 1))
            totals = np.diff(np.concatenate((starts, [size])))
            totals[0] += prior
            detail = f"{cutoff} identical bits (cutoff {cutoff})"
            base = self._position
            for index in np.flatnonzero(totals >= cutoff):
                origin = base + int(starts[index]) - (prior if index == 0 else 0)
                for k in range(1, int(totals[index]) // cutoff + 1):
                    alarms.append(
                        HealthAlarm(
                            test_name="repetition_count",
                            position=origin + k * cutoff - 1,
                            detail=detail,
                        )
                    )
        remainder = last % cutoff
        if remainder == 0:
            # The chunk's last bit raised an alarm: counter restarted.
            self._last_bit = -1
            self._run_length = 0
        else:
            self._last_bit = int(array[-1])
            self._run_length = remainder
        return alarms

    def _proportion_alarms(self, array: np.ndarray) -> List[HealthAlarm]:
        """Tumbling-window adaptive-proportion test over one chunk.

        Completes the partially filled carry window first, then counts
        every full window, and finally starts the next carry window from
        the chunk's tail.
        """
        window = self.window
        cutoff = self.proportion_cutoff
        base = self._position
        alarms: List[HealthAlarm] = []
        offset = 0
        if self._window_position > 0:
            head = array[: window - self._window_position]
            self._window_count += _occurrences(head, self._window_reference)
            self._window_position += head.size
            if self._window_position < window:
                return alarms
            if self._window_count >= cutoff:
                alarms.append(
                    self._proportion_alarm(
                        base + head.size - 1, self._window_count, self._window_reference
                    )
                )
            self._window_position = 0
            offset = head.size
        remaining = array[offset:]
        full = remaining.size // window
        if full:
            segments = remaining[: full * window].reshape(full, window)
            ones = np.count_nonzero(segments, axis=1)
            references = segments[:, 0] != 0
            counts = np.where(references, ones, window - ones)
            for index in np.flatnonzero(counts >= cutoff):
                alarms.append(
                    self._proportion_alarm(
                        base + offset + (int(index) + 1) * window - 1,
                        int(counts[index]),
                        int(references[index]),
                    )
                )
        tail = remaining[full * window :]
        if tail.size:
            self._window_reference = int(tail[0])
            self._window_count = _occurrences(tail, self._window_reference)
            self._window_position = int(tail.size)
        return alarms

    def _proportion_alarm(self, position: int, count: int, reference: int) -> HealthAlarm:
        return HealthAlarm(
            test_name="adaptive_proportion",
            position=position,
            detail=f"{count}/{self.window} occurrences "
            f"of {reference} (cutoff {self.proportion_cutoff})",
        )

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self.alarms

    def check_block(self, bits: Sequence[int]) -> bool:
        """One-shot convenience: reset, ingest, report health."""
        self.reset()
        self.ingest(bits)
        return self.healthy

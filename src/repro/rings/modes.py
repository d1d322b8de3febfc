"""Oscillation-mode detection: evenly-spaced vs burst (paper Fig. 5).

In the **evenly-spaced** mode the tokens propagate with constant spacing,
so the intervals between successive output toggles of any stage are all
equal (up to jitter).  In the **burst** mode the tokens travel as a
cluster: an observer sees a volley of quick toggles followed by a long
silence while the cluster loops around.  The interval sequence is
therefore the natural discriminator, and is also exactly what a scope on
the ring output would record.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.simulation.waveform import EdgeTrace


class OscillationMode(enum.Enum):
    """Steady-regime classification of an STR."""

    EVENLY_SPACED = "evenly_spaced"
    BURST = "burst"
    IRREGULAR = "irregular"


@dataclasses.dataclass(frozen=True)
class ModeClassification:
    """Classification with the evidence behind it.

    ``coefficient_of_variation`` is std/mean of the toggle intervals;
    ``gap_ratio`` is the largest interval over the median one.  An
    evenly-spaced ring has both near their minimum; a burst ring shows a
    large gap ratio (the silence while the cluster loops around).
    """

    mode: OscillationMode
    coefficient_of_variation: float
    gap_ratio: float
    interval_count: int


#: Intervals spread less than this (relative) => evenly spaced.
_EVEN_CV_THRESHOLD = 0.15
#: Largest/median interval above this => burst.
_BURST_GAP_THRESHOLD = 2.5


def classify_intervals(
    intervals_ps: np.ndarray,
    even_cv_threshold: float = _EVEN_CV_THRESHOLD,
    burst_gap_threshold: float = _BURST_GAP_THRESHOLD,
) -> ModeClassification:
    """Classify a sequence of toggle intervals.

    Parameters
    ----------
    intervals_ps:
        Inter-toggle intervals of one stage output (half periods).
    even_cv_threshold:
        Maximum coefficient of variation for the evenly-spaced verdict.
    burst_gap_threshold:
        Minimum max/median interval ratio for the burst verdict.
    """
    intervals = np.asarray(intervals_ps, dtype=float)
    if intervals.size < 4:
        raise ValueError(f"need at least 4 intervals to classify, got {intervals.size}")
    if np.any(intervals <= 0.0):
        raise ValueError("intervals must be positive")
    mean = float(np.mean(intervals))
    coefficient_of_variation = float(np.std(intervals) / mean)
    median = float(np.median(intervals))
    gap_ratio = float(np.max(intervals) / median)

    if gap_ratio >= burst_gap_threshold:
        mode = OscillationMode.BURST
    elif coefficient_of_variation <= even_cv_threshold:
        mode = OscillationMode.EVENLY_SPACED
    else:
        mode = OscillationMode.IRREGULAR
    return ModeClassification(
        mode=mode,
        coefficient_of_variation=coefficient_of_variation,
        gap_ratio=gap_ratio,
        interval_count=int(intervals.size),
    )


def classify_trace(
    trace: EdgeTrace,
    even_cv_threshold: float = _EVEN_CV_THRESHOLD,
    burst_gap_threshold: float = _BURST_GAP_THRESHOLD,
) -> ModeClassification:
    """Classify the steady regime from an output edge trace."""
    return classify_intervals(
        trace.half_periods_ps(),
        even_cv_threshold=even_cv_threshold,
        burst_gap_threshold=burst_gap_threshold,
    )

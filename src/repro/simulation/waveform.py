"""Edge-trace analysis: turning recorded edges into periods and jitter.

The paper's measurable quantities all derive from the sequence of edge
instants of an oscillating node: period populations (for the period-jitter
histograms of Fig. 9), half periods, duty cycles, and mean frequency.
:class:`EdgeTrace` wraps a monotone array of edge times and provides those
derivations, discarding a configurable *warm-up* prefix so that start-up
transients (before an STR locks into its steady regime) do not pollute the
statistics.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.simulation.events import Edge
from repro.units import period_ps_to_mhz


def half_periods_from_edges(edge_times_ps: np.ndarray) -> np.ndarray:
    """Return consecutive edge-to-edge intervals (half periods)."""
    times = np.asarray(edge_times_ps, dtype=float)
    if times.ndim != 1:
        raise ValueError("edge times must be a 1-D array")
    return np.diff(times)


def periods_from_edges(edge_times_ps: np.ndarray, start_polarity_index: int = 0) -> np.ndarray:
    """Return full periods measured between same-polarity edges.

    ``start_polarity_index`` selects which alternating subsequence to use
    (0 keeps edges 0, 2, 4, ...; 1 keeps edges 1, 3, 5, ...).  Measuring
    between same-polarity edges is how a scope period measurement works
    and makes the result insensitive to duty-cycle asymmetry.
    """
    if start_polarity_index not in (0, 1):
        raise ValueError(f"start_polarity_index must be 0 or 1, got {start_polarity_index}")
    times = np.asarray(edge_times_ps, dtype=float)
    same_polarity = times[start_polarity_index::2]
    return np.diff(same_polarity)


class EdgeTrace:
    """An immutable, time-ordered record of one node's edges.

    Parameters
    ----------
    edge_times_ps:
        Strictly increasing edge instants in picoseconds.
    first_value:
        Logic value the signal takes at the *first* edge.  Only needed by
        duty-cycle computations.
    """

    def __init__(self, edge_times_ps: Sequence[float], first_value: int = 1) -> None:
        times = np.asarray(edge_times_ps, dtype=float)
        if times.ndim != 1:
            raise ValueError("edge times must be one-dimensional")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("edge times must be strictly increasing")
        if first_value not in (0, 1):
            raise ValueError(f"first_value must be 0 or 1, got {first_value}")
        self._times = times
        self._first_value = first_value

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "EdgeTrace":
        """Build a trace from simulator :class:`Edge` records."""
        edge_list: List[Edge] = list(edges)
        if not edge_list:
            return cls(np.empty(0), first_value=1)
        return cls(
            np.array([edge.time_ps for edge in edge_list]),
            first_value=edge_list[0].value,
        )

    def skip_edges(self, count: int) -> "EdgeTrace":
        """Return a trace with the first ``count`` edges removed (warm-up)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return self
        first_value = self._first_value if count % 2 == 0 else 1 - self._first_value
        return EdgeTrace(self._times[count:], first_value=first_value)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def times_ps(self) -> np.ndarray:
        """Edge instants in picoseconds (read-only view)."""
        view = self._times.view()
        view.flags.writeable = False
        return view

    @property
    def first_value(self) -> int:
        return self._first_value

    def __len__(self) -> int:
        return int(self._times.size)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def half_periods_ps(self) -> np.ndarray:
        """Edge-to-edge intervals."""
        return half_periods_from_edges(self._times)

    def periods_ps(self, polarity_index: int = 0) -> np.ndarray:
        """Full periods between same-polarity edges."""
        return periods_from_edges(self._times, polarity_index)

    def mean_period_ps(self) -> float:
        """Mean oscillation period, requiring at least two full periods."""
        periods = self.periods_ps()
        if periods.size == 0:
            raise ValueError("trace is too short to contain a full period")
        return float(np.mean(periods))

    def mean_frequency_mhz(self) -> float:
        """Mean oscillation frequency in MHz."""
        return period_ps_to_mhz(self.mean_period_ps())

    def period_jitter_ps(self) -> float:
        """Standard deviation of the period population (sigma_period).

        This is the paper's definition of *period jitter* (Section IV):
        the standard deviation of a population of measured periods.
        """
        periods = self.periods_ps()
        if periods.size < 2:
            raise ValueError("need at least two periods to estimate jitter")
        return float(np.std(periods, ddof=1))

    def duty_cycle(self) -> float:
        """Fraction of time the signal is high, over whole half-periods.

        No run path reads it; the ring tests use it as the reference for
        the 50 % duty cycle of simulated IRO and STR outputs.
        """
        half_periods = self.half_periods_ps()
        if half_periods.size == 0:
            raise ValueError("trace is too short to compute a duty cycle")
        # half_periods[k] is the time spent at the value set by edge k.
        values = np.empty(half_periods.size, dtype=float)
        values[0::2] = self._first_value
        values[1::2] = 1 - self._first_value
        return float(np.sum(half_periods * values) / np.sum(half_periods))

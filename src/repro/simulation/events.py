"""Event records exchanged between the simulator and the ring models.

The engine in :mod:`repro.simulation.engine` is deliberately small: it only
understands *transitions* — a named node changing logic value at an instant
in time.  Everything oscillator-specific (token bookkeeping, Charlie-effect
delays) lives in the ring models, which act as event *processes*.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, order=True)
class Transition:
    """A logic transition of one node at a given simulated time.

    Ordering is by time first, which is what the event queue needs.

    Attributes
    ----------
    time_ps:
        Simulation instant of the transition, in picoseconds.
    node:
        Index of the node (ring stage output) that switches.
    value:
        New logic value of the node after the transition (0 or 1).
    serial:
        Monotonic tie-breaker assigned by the scheduler so that
        simultaneous events pop in deterministic FIFO order.
    """

    time_ps: float
    node: int
    value: int
    serial: int = 0

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"logic value must be 0 or 1, got {self.value!r}")


@dataclasses.dataclass(frozen=True)
class Edge:
    """A recorded signal edge on an observed node.

    ``polarity`` is +1 for a rising edge and -1 for a falling edge; this is
    redundant with ``value`` but convenient for waveform post-processing.
    """

    time_ps: float
    node: int
    value: int

    @property
    def polarity(self) -> int:
        """+1 for a rising edge, -1 for a falling edge."""
        return 1 if self.value else -1

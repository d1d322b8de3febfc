"""A small deterministic discrete-event simulator.

The engine knows nothing about oscillators.  It maintains a time-ordered
queue of :class:`~repro.simulation.events.Transition` records and hands
each one to the *process* being simulated, which reacts by scheduling
further transitions.  Ring models implement the :class:`Process` protocol.

Determinism
-----------
Two transitions scheduled for the same instant pop in the order they were
scheduled (a monotonically increasing serial number breaks ties), so a
simulation is a pure function of the process state and its noise streams.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.simulation.events import Edge, Transition


class StopReason(enum.Enum):
    """Why a simulation run returned.

    ``QUEUE_EMPTY`` before any limit is the interesting one: the process
    stopped scheduling — for a ring oscillator that means a deadlock
    (e.g. an STR configuration with no fireable stage left).
    """

    QUEUE_EMPTY = "queue_empty"
    UNTIL_REACHED = "until_reached"
    MAX_EVENTS = "max_events"
    MAX_OBSERVED_EDGES = "max_observed_edges"


class Process(Protocol):
    """Protocol for anything the :class:`Simulator` can run."""

    def start(self, simulator: "Simulator") -> None:
        """Schedule the initial transitions."""

    def handle(self, simulator: "Simulator", transition: Transition) -> None:
        """React to a popped transition by updating state and scheduling."""


@dataclasses.dataclass
class SimulationLimits:
    """Stop conditions for a simulation run.

    A run stops at whichever limit is hit first.  ``max_events`` guards
    against runaway processes; ``until_ps`` bounds simulated time;
    ``max_observed_edges`` stops once enough waveform has been captured,
    which is the usual way to collect a fixed number of oscillation
    periods without guessing the simulated duration in advance.
    """

    until_ps: Optional[float] = None
    max_events: Optional[int] = None
    max_observed_edges: Optional[int] = None

    def __post_init__(self) -> None:
        if self.until_ps is None and self.max_events is None and self.max_observed_edges is None:
            raise ValueError("at least one stop condition must be set")
        if self.until_ps is not None and self.until_ps < 0:
            raise ValueError(f"until_ps must be non-negative, got {self.until_ps}")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events}")
        if self.max_observed_edges is not None and self.max_observed_edges <= 0:
            raise ValueError(f"max_observed_edges must be positive, got {self.max_observed_edges}")


class Simulator:
    """Heap-based discrete-event scheduler.

    Typical usage (done for you by the ring models)::

        sim = Simulator()
        sim.observe(output_node)
        sim.run(ring_process, SimulationLimits(max_observed_edges=2048))
        edges = sim.edges_for(output_node)
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Transition]] = []
        self._serial = 0
        self._now_ps = 0.0
        self._events_processed = 0
        self._observed_nodes: Dict[int, List[Edge]] = {}
        self._observed_edge_count = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now_ps(self) -> float:
        """Current simulation time in picoseconds."""
        return self._now_ps

    @property
    def events_processed(self) -> int:
        """Number of transitions handled so far."""
        return self._events_processed

    def schedule(self, time_ps: float, node: int, value: int) -> Transition:
        """Queue a transition of ``node`` to ``value`` at ``time_ps``.

        Scheduling in the past is a programming error in the process model
        and raises immediately rather than silently corrupting causality.
        """
        if time_ps < self._now_ps:
            raise ValueError(
                f"cannot schedule at {time_ps} ps: simulation time is already {self._now_ps} ps"
            )
        self._serial += 1
        transition = Transition(time_ps=time_ps, node=node, value=value, serial=self._serial)
        heapq.heappush(self._queue, (time_ps, self._serial, transition))
        return transition

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, node: int) -> None:
        """Record every edge of ``node`` during the run."""
        self._observed_nodes.setdefault(node, [])

    def edges_for(self, node: int) -> List[Edge]:
        """Return the recorded edges of an observed node."""
        if node not in self._observed_nodes:
            raise KeyError(f"node {node} was not observed; call observe({node}) before run()")
        return self._observed_nodes[node]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, process: Process, limits: SimulationLimits) -> StopReason:
        """Run ``process`` until a stop condition of ``limits`` is reached.

        Returns why the run stopped; ``StopReason.QUEUE_EMPTY`` signals
        that the process went quiescent (a ring deadlock) before any
        requested limit.
        """
        process.start(self)
        while self._queue:
            time_ps, _serial, transition = self._queue[0]
            if limits.until_ps is not None and time_ps > limits.until_ps:
                return StopReason.UNTIL_REACHED
            heapq.heappop(self._queue)
            self._now_ps = time_ps
            self._events_processed += 1
            process.handle(self, transition)
            bucket = self._observed_nodes.get(transition.node)
            if bucket is not None:
                bucket.append(Edge(time_ps=time_ps, node=transition.node, value=transition.value))
                self._observed_edge_count += 1
                if (
                    limits.max_observed_edges is not None
                    and self._observed_edge_count >= limits.max_observed_edges
                ):
                    return StopReason.MAX_OBSERVED_EDGES
            if limits.max_events is not None and self._events_processed >= limits.max_events:
                return StopReason.MAX_EVENTS
        return StopReason.QUEUE_EMPTY

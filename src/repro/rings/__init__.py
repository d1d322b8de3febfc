"""Ring oscillator structures: the IRO and the STR.

Both oscillators expose the same two evaluation paths:

* ``simulate(...)`` — exact simulation of the ring's timing model,
  producing an :class:`~repro.simulation.waveform.EdgeTrace` of the
  output stage: on the vectorized batch kernel by default, on the
  per-event :mod:`repro.simulation` engine (the oracle) with
  ``backend="event"``;
* ``sample_periods(...)`` — a fast vectorized sampler drawing periods
  from the validated analytical model, for statistics-hungry experiments.

Rings are instantiated *on a board* (:meth:`on_board`), which resolves
their placement and per-stage timing through the FPGA substrate.
"""

from repro.rings.base import RingOscillator, SimulationResult
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.rings.tokens import (
    spread_tokens_evenly,
    cluster_tokens,
    count_tokens,
    token_positions,
    bubble_positions,
    tokens_and_bubbles,
)
from repro.rings.modes import OscillationMode, classify_intervals, classify_trace

__all__ = [
    "RingOscillator",
    "SimulationResult",
    "InverterRingOscillator",
    "SelfTimedRing",
    "spread_tokens_evenly",
    "cluster_tokens",
    "count_tokens",
    "token_positions",
    "bubble_positions",
    "tokens_and_bubbles",
    "OscillationMode",
    "classify_intervals",
    "classify_trace",
]

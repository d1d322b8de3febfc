"""The Charlie-effect delay model of an STR stage (paper Section II-D/III).

A Muller C-element's propagation delay depends on how close together its
two input events arrive: the closer they are, the longer the delay.  The
*Charlie diagram* plots the stage delay (measured from the mean of the two
input arrival instants) against the separation time

    ``s = (t_forward - t_reverse) / 2``.

The paper's symmetric form (Eq. 3) is::

    charlie(s) = Ds + sqrt(Dcharlie^2 + s^2)

a hyperbola inscribed between the asymptotes ``Ds + s`` and ``Ds - s``.
This module implements the slightly more general asymmetric form used by
the time-accurate model of Hamon et al. [4], with distinct forward and
reverse static delays ``Dff`` / ``Drr``::

    charlie(s) = (Dff + Drr)/2 + sqrt(Dcharlie^2 + (s - s0)^2),
    s0 = (Drr - Dff)/2

whose asymptotes are ``Dff + s`` (token-limited) and ``Drr - s``
(bubble-limited).  With ``Dff == Drr == Ds`` this reduces exactly to
Eq. 3 — the FPGA hypothesis of the paper's Section III-A.

The *drafting effect* (delay reduction when the stage fired recently) is
also modelled, as an exponentially decaying delay reduction.  The paper
measured it to be negligible in FPGAs and neglects it; we keep it
available (default zero) so that the ASIC-oriented analyses of [3], [4]
can be replayed too.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class CharlieParameters:
    """Static timing parameters of one STR stage.

    Attributes
    ----------
    forward_delay_ps:
        ``Dff`` — static delay when the forward input arrives much later
        than the reverse input (token-limited regime).
    reverse_delay_ps:
        ``Drr`` — static delay when the reverse input arrives much later
        (bubble-limited regime).
    charlie_ps:
        ``Dcharlie`` — magnitude of the Charlie effect: the extra delay at
        perfectly simultaneous inputs, and the half-width of the smoothed
        region of the diagram.
    """

    forward_delay_ps: float
    reverse_delay_ps: float
    charlie_ps: float

    def __post_init__(self) -> None:
        if self.forward_delay_ps <= 0.0:
            raise ValueError(f"Dff must be positive, got {self.forward_delay_ps}")
        if self.reverse_delay_ps <= 0.0:
            raise ValueError(f"Drr must be positive, got {self.reverse_delay_ps}")
        if self.charlie_ps < 0.0:
            raise ValueError(f"Dcharlie must be non-negative, got {self.charlie_ps}")

    @classmethod
    def symmetric(cls, static_delay_ps: float, charlie_ps: float) -> "CharlieParameters":
        """Parameters for the paper's symmetric Eq. 3 (``Dff == Drr == Ds``)."""
        return cls(
            forward_delay_ps=static_delay_ps,
            reverse_delay_ps=static_delay_ps,
            charlie_ps=charlie_ps,
        )

    @property
    def static_delay_ps(self) -> float:
        """``Ds = (Dff + Drr) / 2`` — the mean static delay."""
        return 0.5 * (self.forward_delay_ps + self.reverse_delay_ps)

    @property
    def separation_offset_ps(self) -> float:
        """``s0 = (Drr - Dff) / 2`` — diagram shift due to Dff/Drr asymmetry."""
        return 0.5 * (self.reverse_delay_ps - self.forward_delay_ps)

    @property
    def is_symmetric(self) -> bool:
        """True when ``Dff == Drr`` (the paper's FPGA hypothesis)."""
        return self.forward_delay_ps == self.reverse_delay_ps


@dataclasses.dataclass(frozen=True)
class DraftingEffect:
    """Exponentially decaying delay reduction after a recent output event.

    ``reduction(dt) = amplitude_ps * exp(-dt / time_constant_ps)`` where
    ``dt`` is the time elapsed since the stage's previous output event.
    ``amplitude_ps = 0`` disables the effect, which is the paper's choice
    for FPGA targets (Section II-D2).
    """

    amplitude_ps: float = 0.0
    time_constant_ps: float = 100.0

    def __post_init__(self) -> None:
        if self.amplitude_ps < 0.0:
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude_ps}")
        if self.time_constant_ps <= 0.0:
            raise ValueError(f"time constant must be positive, got {self.time_constant_ps}")

    @property
    def is_active(self) -> bool:
        return self.amplitude_ps > 0.0

    def reduction_ps(self, elapsed_ps: float) -> float:
        """Delay reduction for an output event ``elapsed_ps`` after the last.

        ``numpy.exp`` for the same reason :meth:`CharlieDiagram.delay_ps`
        uses ``numpy.hypot``: the libm and numpy transcendentals round
        differently for a few percent of inputs, and the event engine
        must stay bit-identical to the batch kernel.
        """
        if elapsed_ps < 0.0:
            raise ValueError(f"elapsed time must be non-negative, got {elapsed_ps}")
        if self.amplitude_ps == 0.0:
            return 0.0
        return self.amplitude_ps * float(np.exp(-elapsed_ps / self.time_constant_ps))


class CharlieDiagram:
    """The Charlie diagram of one STR stage.

    Combines the static/Charlie parameters with an optional drafting
    effect and answers the two questions the event-driven simulator asks:

    * :meth:`delay_ps` — stage delay from the *mean* input arrival time,
      as a function of separation time ``s``;
    * :meth:`output_time_ps` — absolute firing instant given the two
      input event instants.
    """

    def __init__(
        self,
        parameters: CharlieParameters,
        drafting: DraftingEffect = DraftingEffect(),
    ) -> None:
        self._parameters = parameters
        self._drafting = drafting

    @property
    def parameters(self) -> CharlieParameters:
        return self._parameters

    @property
    def drafting(self) -> DraftingEffect:
        return self._drafting

    # ------------------------------------------------------------------
    # the diagram itself
    # ------------------------------------------------------------------
    def delay_ps(self, separation_ps: float) -> float:
        """Stage delay from the mean input arrival time (Eq. 3).

        Uses ``numpy.hypot`` rather than ``math.hypot``: the two round
        differently for ~0.7% of inputs (1 ulp), and the scalar path
        must stay bit-identical to :meth:`delay_array_ps` and the batch
        kernel (:mod:`repro.simulation.batch`), which are built on the
        numpy ufunc.

        >>> diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        >>> diagram.delay_ps(0.0)
        150.0
        """
        params = self._parameters
        shifted = separation_ps - params.separation_offset_ps
        return params.static_delay_ps + float(np.hypot(params.charlie_ps, shifted))

    def delay_array_ps(self, separations_ps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`delay_ps` for plotting / sweeps."""
        params = self._parameters
        shifted = np.asarray(separations_ps, dtype=float) - params.separation_offset_ps
        return params.static_delay_ps + np.hypot(params.charlie_ps, shifted)

    def slope(self, separation_ps: float) -> float:
        """Derivative ``d charlie / d s`` at ``separation_ps``.

        The slope lies in (-1, 1); its magnitude near the operating point
        measures how much of an input-timing perturbation leaks into the
        output timing.  A small slope (deep Charlie region) is what makes
        the STR robust (Section III-B).
        """
        params = self._parameters
        shifted = separation_ps - params.separation_offset_ps
        if params.charlie_ps == 0.0 and shifted == 0.0:
            return 0.0
        return shifted / math.hypot(params.charlie_ps, shifted)

    def asymptote_gap_ps(self, separation_ps: float) -> float:
        """Distance between the diagram and its asymptotes at ``s``.

        Tends to zero for ``|s| >> Dcharlie`` — the "linear part" of the
        diagram where the Charlie effect is negligible (Section V-B).
        """
        params = self._parameters
        shifted = abs(separation_ps - params.separation_offset_ps)
        return math.hypot(params.charlie_ps, shifted) - shifted

    # ------------------------------------------------------------------
    # event timing
    # ------------------------------------------------------------------
    def separation_ps(self, forward_time_ps: float, reverse_time_ps: float) -> float:
        """``s = (t_forward - t_reverse) / 2`` for two input events."""
        return 0.5 * (forward_time_ps - reverse_time_ps)

    def output_time_ps(
        self,
        forward_time_ps: float,
        reverse_time_ps: float,
        last_output_time_ps: float = -math.inf,
    ) -> float:
        """Absolute firing instant for the given input event instants.

        The firing instant is ``(t_f + t_r)/2 + charlie(s)`` minus the
        drafting reduction.  Because ``charlie(s) >= |s - s0| + Ds`` the
        result is always causal (later than both inputs) as long as the
        drafting reduction stays below the static delay.
        """
        mean_time = 0.5 * (forward_time_ps + reverse_time_ps)
        separation = self.separation_ps(forward_time_ps, reverse_time_ps)
        delay = self.delay_ps(separation)
        if self._drafting.is_active and math.isfinite(last_output_time_ps):
            elapsed = mean_time + delay - last_output_time_ps
            if elapsed > 0.0:
                delay -= self._drafting.reduction_ps(elapsed)
        output_time = mean_time + delay
        latest_input = max(forward_time_ps, reverse_time_ps)
        if output_time <= latest_input:
            # The drafting reduction may not break causality.
            output_time = math.nextafter(latest_input, math.inf)
        return output_time

    def __repr__(self) -> str:
        return f"CharlieDiagram(parameters={self._parameters!r}, drafting={self._drafting!r})"

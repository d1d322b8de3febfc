"""Steady-state solver for the evenly-spaced STR regime (paper Section III).

In the evenly-spaced propagation mode every stage fires periodically and
successive stages fire a constant *hop delay* ``D`` apart.  Writing
``rho = L / (2 NT)``, self-consistency of the Charlie timing model gives
two coupled relations (derived from the firing rule
``t_out = (t_f + t_r)/2 + charlie(s)``):

* the separation time every stage sees is ``s* = (rho - 1) * D``;
* the Charlie delay at that separation is ``charlie(s*) = rho * D``.

Eliminating ``s*`` leaves a single fixed-point equation in ``D`` which
this module solves.  The oscillation period (two output toggles per token
passage) is then::

    T = 2 * L * D / NT = 4 * charlie(s*) ... (for rho expressed back)

Special cases worth knowing:

* ``NT = NB`` and a symmetric diagram (the paper's FPGA hypothesis) give
  ``s* = 0`` and ``D = Ds + Dcharlie`` — every stage operates at the very
  bottom of the Charlie diagram, with maximal smoothing.  Hence the
  paper's statement that such rings have "null separation times ... with
  a maximal Charlie effect".
* For ``NT/NB`` away from the ``Dff/Drr`` ratio, ``|s*|`` grows and the
  operating point slides toward the linear part of the diagram where the
  Charlie slope approaches +-1 and regulation weakens — the precursor of
  the burst mode.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.core.charlie import CharlieDiagram
from repro.rootfind import brentq
from repro.units import period_ps_to_mhz


class InvalidRingConfiguration(ValueError):
    """Raised for token/bubble configurations that cannot oscillate."""


def validate_token_configuration(stage_count: int, token_count: int) -> None:
    """Check the paper's oscillation conditions (Section II-C2).

    * ``L >= 3`` stages,
    * ``NT`` a positive even number of tokens,
    * ``NB = L - NT >= 1`` bubble.
    """
    if stage_count < 3:
        raise InvalidRingConfiguration(f"an STR needs at least 3 stages, got {stage_count}")
    if token_count <= 0:
        raise InvalidRingConfiguration(f"token count must be positive, got {token_count}")
    if token_count % 2 != 0:
        raise InvalidRingConfiguration(f"token count must be even, got {token_count}")
    if stage_count - token_count < 1:
        raise InvalidRingConfiguration(
            f"need at least one bubble: L={stage_count}, NT={token_count}"
        )


@dataclasses.dataclass(frozen=True)
class SteadyState:
    """Solved evenly-spaced operating point of an STR.

    Attributes
    ----------
    stage_count, token_count:
        The configuration (``NB = stage_count - token_count``).
    hop_delay_ps:
        Time between firings of adjacent stages (token propagation speed).
    separation_ps:
        Separation time ``s*`` every stage sees in the steady regime.
    period_ps:
        Oscillation period of any stage output.
    charlie_slope:
        Charlie-diagram slope at ``s*``; its magnitude in [0, 1) measures
        how weakly the ring regulates perturbations (0 = strongest).
    """

    stage_count: int
    token_count: int
    hop_delay_ps: float
    separation_ps: float
    period_ps: float
    charlie_slope: float

    @property
    def bubble_count(self) -> int:
        return self.stage_count - self.token_count

    @property
    def frequency_mhz(self) -> float:
        return period_ps_to_mhz(self.period_ps)

    @property
    def regulation_margin(self) -> float:
        """``1 - |slope|``: 1 means maximal Charlie regulation, 0 none."""
        return 1.0 - abs(self.charlie_slope)


def solve_steady_state(
    diagram: CharlieDiagram,
    stage_count: int,
    token_count: int,
    hop_delay_bracket_ps: Optional[float] = None,
) -> SteadyState:
    """Solve the evenly-spaced fixed point for the given configuration.

    Parameters
    ----------
    diagram:
        Charlie diagram of one (nominal) ring stage.
    stage_count, token_count:
        Ring length ``L`` and token count ``NT`` (``NB = L - NT``).
    hop_delay_bracket_ps:
        Optional upper bound for the root search; defaults to a generous
        multiple of the static delay.

    Returns
    -------
    SteadyState
        The solved operating point.
    """
    validate_token_configuration(stage_count, token_count)
    rho = stage_count / (2.0 * token_count)

    params = diagram.parameters
    if math.isclose(rho, 1.0):
        # NT = NB: the fixed point is explicit, s* = s0 of the diagram.
        separation = params.separation_offset_ps
        hop_delay = diagram.delay_ps(separation)
        # With asymmetry s* = (rho-1)*D = 0 requires symmetric diagrams;
        # for asymmetric ones at rho == 1 the exact solution still follows
        # the generic branch below.
        if params.is_symmetric:
            period = 2.0 * stage_count * hop_delay / token_count
            return SteadyState(
                stage_count=stage_count,
                token_count=token_count,
                hop_delay_ps=hop_delay,
                separation_ps=separation,
                period_ps=period,
                charlie_slope=diagram.slope(separation),
            )

    def residual(hop_delay: float) -> float:
        separation = (rho - 1.0) * hop_delay
        return diagram.delay_ps(separation) - rho * hop_delay

    # charlie((rho-1) D) - rho D is positive at D -> 0+ (it tends to
    # charlie(0) > 0) and eventually negative because the Charlie term
    # grows like |rho - 1| D < rho D.  A root therefore exists, near
    # D ~ scale / gap with gap = rho - |rho - 1|: for bubble-starved
    # rings (NB = 1, rho -> 1/2) the gap collapses and the hop delay
    # legitimately diverges (one bubble limits the whole ring), so the
    # bracket must scale accordingly.
    lower = 1e-9
    if hop_delay_bracket_ps is None:
        scale = params.static_delay_ps + params.charlie_ps + abs(params.separation_offset_ps)
        gap = rho - abs(rho - 1.0)
        if gap <= 0.0:
            raise InvalidRingConfiguration(
                f"no oscillatory fixed point for L={stage_count}, NT={token_count}"
            )
        upper = 10.0 * scale / gap + 10.0 * scale
    else:
        upper = hop_delay_bracket_ps
    if residual(upper) > 0.0:
        raise RuntimeError(
            f"steady-state bracket too small: residual({upper}) > 0 for "
            f"L={stage_count}, NT={token_count}"
        )
    hop_delay = brentq(residual, lower, upper, xtol=1e-9)
    separation = (rho - 1.0) * hop_delay
    period = 2.0 * stage_count * hop_delay / token_count
    return SteadyState(
        stage_count=stage_count,
        token_count=token_count,
        hop_delay_ps=hop_delay,
        separation_ps=separation,
        period_ps=period,
        charlie_slope=diagram.slope(separation),
    )


def balanced_token_count(stage_count: int) -> int:
    """Largest valid token count with ``NT = NB`` (or nearest even split).

    For even ``L`` this is exactly ``L / 2`` (rounded down to even); for
    odd ``L`` the closest valid balanced configuration is returned.
    """
    if stage_count < 3:
        raise InvalidRingConfiguration(f"an STR needs at least 3 stages, got {stage_count}")
    token_count = stage_count // 2
    if token_count % 2 != 0:
        token_count -= 1
    if token_count < 2:
        token_count = 2
    validate_token_configuration(stage_count, token_count)
    return token_count

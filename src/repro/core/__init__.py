"""The paper's analytical contribution.

* :mod:`repro.core.charlie` — the Charlie-diagram delay model (Eq. 3) and
  the (neglected-in-FPGA) drafting effect.
* :mod:`repro.core.jitter_model` — the jitter accumulation laws (Eqs. 4-7)
  and the divider-based jitter measurement estimator (Eq. 6).
* :mod:`repro.core.temporal_model` — the steady-state solver of the
  Hamon-style time-accurate STR model (period, separation time, stability).
* :mod:`repro.core.characterization` — the experiment drivers: frequency
  vs voltage, extra-device dispersion, jitter vs ring length.
* :mod:`repro.core.comparison` — STR-vs-IRO comparison reports.
"""

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect
from repro.core.jitter_model import (
    iro_period_jitter_ps,
    str_period_jitter_ps,
    gate_jitter_from_iro_period_jitter,
    recover_period_jitter_from_divided,
    divided_cycle_to_cycle_jitter,
)
from repro.core.temporal_model import SteadyState, solve_steady_state
from repro.core.characterization import (
    VoltageSweepResult,
    sweep_voltage,
    normalized_excursion,
    measure_family_dispersion,
    FamilyDispersionResult,
    measure_period_jitter,
    jitter_from_trace,
    JitterMeasurementResult,
)
from repro.core.comparison import ComparisonReport, compare_entropy_sources
from repro.core.campaign import CampaignReport, RingCampaignResult, RingSpec, run_campaign

__all__ = [
    "CharlieDiagram",
    "CharlieParameters",
    "DraftingEffect",
    "iro_period_jitter_ps",
    "str_period_jitter_ps",
    "gate_jitter_from_iro_period_jitter",
    "recover_period_jitter_from_divided",
    "divided_cycle_to_cycle_jitter",
    "SteadyState",
    "solve_steady_state",
    "VoltageSweepResult",
    "sweep_voltage",
    "normalized_excursion",
    "measure_family_dispersion",
    "FamilyDispersionResult",
    "measure_period_jitter",
    "jitter_from_trace",
    "JitterMeasurementResult",
    "ComparisonReport",
    "compare_entropy_sources",
    "CampaignReport",
    "RingCampaignResult",
    "RingSpec",
    "run_campaign",
]

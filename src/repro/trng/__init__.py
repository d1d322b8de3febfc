"""TRNG layer: turning a jittery clock into bits.

The paper characterizes STRs and IROs *as entropy sources*; this
subpackage is the downstream consumer that makes the comparison concrete:

* :mod:`repro.trng.sampler` — a D flip-flop sampling a jittery clock on a
  reference clock (the elementary extraction mechanism).
* :mod:`repro.trng.phasewalk` — the phase-random-walk core every fast
  ring-sampling model draws from, with the quality factor ``Q`` and the
  standard entropy lower-bound model.
* :mod:`repro.trng.elementary` — the elementary oscillator-based TRNG.
* :mod:`repro.trng.coherent` — a coherent-sampling TRNG (the paper's
  reference [7]), whose feasibility depends on narrow extra-device
  frequency dispersion — the STR's strong suit.
* :mod:`repro.trng.attacks` — supply-manipulation attack scenarios used
  to compare the robustness of IRO- and STR-based generators.
* :mod:`repro.trng.supervisor` — the supervised runtime: an AIS-31-style
  state machine running the health tests continuously and recovering
  from alarms (retry, restart, failover, XOR-degraded mode, total
  failure), driven by :mod:`repro.faults` scenarios.
"""

from repro.trng.sampler import JitteryClock, sample_clock_at
from repro.trng.elementary import ElementaryTrng
from repro.trng.phasewalk import PhaseWalkTrng, quality_factor, predicted_shannon_entropy
from repro.trng.phasewalk import reference_period_for_q
from repro.trng.multiphase import (
    MultiphaseStrTrng,
    MultiphaseModel,
    MultiphaseDesignPoint,
    measure_diffusion_sigma_ps,
    reference_period_for_multiphase_q,
)
from repro.trng.health import (
    HealthAlarm,
    HealthMonitor,
    repetition_count_cutoff,
    adaptive_proportion_cutoff,
)
from repro.trng.assessment import (
    MinEntropyAssessment,
    assess_min_entropy,
    collision_estimate,
    markov_estimate,
    most_common_value_estimate,
)
from repro.trng.coherent import CoherentSamplingTrng, CountStatistics, beat_period_ps
from repro.trng.xored_rings import XoredRingTrng, XoredDesignPoint
from repro.trng.attacks import (
    AttackOutcome,
    SupplyAttack,
    DeterministicResponse,
    measure_deterministic_response,
    run_supply_sweep_attack,
    run_ripple_attack,
)
from repro.trng.supervisor import (
    LOCK_THRESHOLD,
    THERMAL_UPSET_C,
    BlockRecord,
    EventLog,
    RingChannel,
    SupervisedRunResult,
    SupervisedTrng,
    SupervisorEvent,
    TotalFailureError,
    TrngState,
)

__all__ = [
    "JitteryClock",
    "sample_clock_at",
    "ElementaryTrng",
    "quality_factor",
    "predicted_shannon_entropy",
    "PhaseWalkTrng",
    "reference_period_for_q",
    "MultiphaseStrTrng",
    "MultiphaseModel",
    "MultiphaseDesignPoint",
    "measure_diffusion_sigma_ps",
    "reference_period_for_multiphase_q",
    "HealthAlarm",
    "HealthMonitor",
    "repetition_count_cutoff",
    "adaptive_proportion_cutoff",
    "MinEntropyAssessment",
    "assess_min_entropy",
    "collision_estimate",
    "markov_estimate",
    "most_common_value_estimate",
    "CoherentSamplingTrng",
    "CountStatistics",
    "beat_period_ps",
    "XoredRingTrng",
    "XoredDesignPoint",
    "AttackOutcome",
    "SupplyAttack",
    "DeterministicResponse",
    "measure_deterministic_response",
    "run_supply_sweep_attack",
    "run_ripple_attack",
    "LOCK_THRESHOLD",
    "THERMAL_UPSET_C",
    "BlockRecord",
    "EventLog",
    "RingChannel",
    "SupervisedRunResult",
    "SupervisedTrng",
    "SupervisorEvent",
    "TotalFailureError",
    "TrngState",
]

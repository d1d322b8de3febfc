"""RO-PUF population workloads on the process model (identity, not entropy).

The paper's Table II result — per-LUT process dispersion dominates
ring-to-ring frequency differences — is exactly the physics a
ring-oscillator *physical unclonable function* harvests: compare the
frequencies of nominally identical rings and the ordering is a device
fingerprint.  This package turns the repository's process model into
that fourth workload family:

* :mod:`repro.puf.enrollment` — manufacture populations of up to ~1M
  devices (chunked + job-parallel over the stacked array layout of the
  batch kernel) and derive their response bits;
* :mod:`repro.puf.topology` — neighbor / all-pairs / Lehmer-code
  comparison topologies;
* :mod:`repro.puf.metrics` — uniqueness, reliability across
  voltage/temperature corners, bit-aliasing;
* :mod:`repro.puf.auth` — FAR/FRR threshold sweep and equal-error rate.

Entry points: ``repro puf enroll|score|auth`` on the CLI, the ``EXT11``
experiment, and the ``PUF-UNIQ`` / ``PUF-STABLE`` verify claims.
"""

from repro.puf.auth import AuthReport, authentication_report
from repro.puf.enrollment import (
    CHUNK_DEVICES,
    CornerTables,
    Enrollment,
    PLACEMENT_POLICIES,
    PopulationMeasurement,
    PufDesign,
    corner_tables,
    enroll_population,
    measure_population,
    population_frequencies,
    required_lut_count,
    ring_placements,
)
from repro.puf.metrics import (
    PopulationScore,
    ReliabilityReport,
    UniquenessReport,
    score_population,
    score_reliability,
    score_uniqueness,
    stress_corners,
)
from repro.puf.topology import (
    TOPOLOGIES,
    derive_response_bits,
    lehmer_digit_widths,
    response_bit_count,
    validate_topology,
)

__all__ = [
    "AuthReport",
    "authentication_report",
    "CHUNK_DEVICES",
    "CornerTables",
    "Enrollment",
    "PLACEMENT_POLICIES",
    "PopulationMeasurement",
    "PufDesign",
    "corner_tables",
    "enroll_population",
    "measure_population",
    "population_frequencies",
    "required_lut_count",
    "ring_placements",
    "PopulationScore",
    "ReliabilityReport",
    "UniquenessReport",
    "score_population",
    "score_reliability",
    "score_uniqueness",
    "stress_corners",
    "TOPOLOGIES",
    "derive_response_bits",
    "lehmer_digit_widths",
    "response_bit_count",
    "validate_topology",
]

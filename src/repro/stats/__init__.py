"""Statistical analysis substrate.

* :mod:`repro.stats.descriptive` — the paper's summary statistics:
  normalized frequency, normalized excursion ``delta F``, relative
  standard deviation ``sigma_rel``.
* :mod:`repro.stats.normality` — Gaussianity checks for jitter
  histograms (Fig. 9) and the divider-method hypothesis.
* :mod:`repro.stats.fitting` — square-root / linear accumulation-law
  fits (Figs. 11-12).
* :mod:`repro.stats.entropy` — entropy and bias estimators for TRNG
  output.
* :mod:`repro.stats.randomness` — a compact randomness test battery
  (monobit, block frequency, runs, autocorrelation, ...).
* :mod:`repro.stats.puf` — population-shaped PUF response statistics
  (Hamming distances, bit-aliasing, uniformity) for ``repro.puf``.
"""

from repro.stats.descriptive import (
    normalized_frequencies,
    normalized_excursion,
    relative_standard_deviation,
    linearity_r_squared,
)
from repro.stats.normality import NormalityReport, check_normality
from repro.stats.fitting import (
    PowerLawFit,
    fit_sqrt_accumulation,
    fit_power_law,
    fit_constant,
    ConstantFit,
)
from repro.stats.accumulation import (
    AccumulationProfile,
    AllanProfile,
    accumulation_profile,
    allan_deviation,
    allan_profile,
    allan_variance,
)
from repro.stats.entropy import (
    shannon_entropy_per_bit,
    min_entropy_per_bit,
    bias,
    markov_entropy_per_bit,
)
from repro.stats.randomness import (
    TestResult,
    BatteryReport,
    monobit_test,
    block_frequency_test,
    runs_test,
    longest_run_test,
    autocorrelation_test,
    cumulative_sums_test,
    run_battery,
)
from repro.stats.puf import (
    bit_aliasing,
    hamming_distance,
    mean_pairwise_hamming,
    pairwise_hamming,
    uniformity,
)

__all__ = [
    "AccumulationProfile",
    "AllanProfile",
    "accumulation_profile",
    "allan_deviation",
    "allan_profile",
    "allan_variance",
    "normalized_frequencies",
    "normalized_excursion",
    "relative_standard_deviation",
    "linearity_r_squared",
    "NormalityReport",
    "check_normality",
    "PowerLawFit",
    "fit_sqrt_accumulation",
    "fit_power_law",
    "fit_constant",
    "ConstantFit",
    "shannon_entropy_per_bit",
    "min_entropy_per_bit",
    "bias",
    "markov_entropy_per_bit",
    "TestResult",
    "BatteryReport",
    "monobit_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "autocorrelation_test",
    "cumulative_sums_test",
    "run_battery",
    "bit_aliasing",
    "hamming_distance",
    "mean_pairwise_hamming",
    "pairwise_hamming",
    "uniformity",
]

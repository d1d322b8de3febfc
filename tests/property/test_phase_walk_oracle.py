"""The phase walk against its oracles.

:class:`~repro.trng.phasewalk.PhaseWalkTrng` is the only fast TRNG model;
two properties tie it to the simulation it replaces:

* the elementary TRNG's fast path (the walk) and its event-driven path
  (D flip-flop sampling of the simulated edge timeline) produce bit
  streams with the same bias, lag-1 agreement and Markov entropy, with
  and without supply modulation;
* the walk's own assumption — the accumulated timing variance of the
  ring grows linearly in the lag, at the calibrated diffusion rate
  ``measure_diffusion_sigma_ps**2`` per period (EXT3's accumulation
  profile) — holds on the batch kernel.
"""

import numpy as np
import pytest

from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SinusoidalModulation
from repro.stats.entropy import markov_entropy_per_bit
from repro.trng.elementary import ElementaryTrng
from repro.trng.multiphase import measure_diffusion_sigma_ps

ORACLE_SEEDS = (0, 1, 2)
ORACLE_BITS = 2000


def _stream_statistics(trng, modulation):
    """Bias, lag-1 agreement and Markov entropy, averaged over the seeds."""
    rows = []
    for seed in ORACLE_SEEDS:
        bits = trng.generate(ORACLE_BITS, seed=seed, modulation=modulation)
        rows.append(
            (np.mean(bits), np.mean(bits[1:] == bits[:-1]), markov_entropy_per_bit(bits))
        )
    return np.mean(rows, axis=0)


@pytest.mark.parametrize("rippled", [False, True], ids=["clean", "ripple"])
def test_fast_path_matches_event_oracle(rippled):
    # Three 100 ps stages at sigma = 20 ps: a 600 ps ring sampled every
    # 8 periods (Q ~ 0.05), so the event run stays short while the bits
    # keep visible serial structure for the statistics to compare.
    ring = InverterRingOscillator([100.0] * 3, jitter_sigmas_ps=20.0)
    reference = 8.0 * ring.predicted_period_ps()
    modulation = SinusoidalModulation(0.04, 5.3 * reference) if rippled else None
    fast = _stream_statistics(ElementaryTrng(ring, reference), modulation)
    oracle = _stream_statistics(
        ElementaryTrng(ring, reference, use_simulation=True), modulation
    )
    # Five binomial standard errors of a fair bit over the pooled count.
    tolerance = 5.0 * 0.5 / np.sqrt(len(ORACLE_SEEDS) * ORACLE_BITS)
    np.testing.assert_allclose(fast, oracle, rtol=0.0, atol=tolerance)


LAGS = 2 ** np.arange(4, 10)  # 16 .. 512 periods


@pytest.mark.parametrize(
    "build,calibration_seeds,period_count",
    [
        pytest.param(
            lambda board: InverterRingOscillator.on_board(board, 5),
            16,
            2**19,
            id="IRO 5C",
        ),
        pytest.param(
            lambda board: SelfTimedRing.on_board(board, 63, token_count=20),
            3,
            2**13,
            id="STR 63C NT=20",
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "the Charlie-regulated edge deviation adds a ~120 ps^2 "
                    "offset that saturates within ~16 periods; the growth "
                    "beyond it is ~0.8-1.1 ps^2 per period, below the "
                    "lag-64 calibration (~2.3 ps^2)"
                ),
            ),
        ),
    ],
)
def test_kernel_variance_grows_at_calibrated_rate(
    board, build, calibration_seeds, period_count
):
    ring = build(board)
    rate = np.mean(
        [measure_diffusion_sigma_ps(ring, seed=seed) ** 2 for seed in range(calibration_seeds)]
    )
    periods = ring.simulate(period_count, seed=99, backend="batch").trace.periods_ps()
    edges = np.concatenate([[0.0], np.cumsum(periods)])
    variances = np.array([np.var(edges[lag:] - edges[:-lag]) for lag in LAGS])
    # The calibration's own sampling error (64 blocks per estimate,
    # averaged over the seeds) and the long-lag variance estimates set
    # the tolerance.
    np.testing.assert_allclose(variances / LAGS, rate, rtol=0.25)

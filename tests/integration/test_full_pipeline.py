"""End-to-end pipeline: board -> ring -> TRNG -> verdict.

One test per stage boundary of the full stack, plus a single test that
walks the entire chain the way a downstream user would.
"""

import numpy as np

from repro.fpga.board import BoardBank
from repro.rings.modes import OscillationMode, classify_trace
from repro.rings.str_ring import SelfTimedRing
from repro.stats.randomness import run_battery
from repro.trng.assessment import assess_min_entropy
from repro.trng.health import HealthMonitor
from repro.trng.phasewalk import PhaseWalkTrng, reference_period_for_q


class TestFullPipeline:
    def test_board_to_verdict(self, bank):
        # 1. design: a balanced 96-stage STR placed on a manufactured board.
        ring = SelfTimedRing.on_board(bank[0], 96)
        assert ring.token_count == 48

        # 2. silicon behaviour: the ring oscillates evenly spaced.
        result = ring.simulate(384, seed=9, warmup_periods=64)
        assert classify_trace(result.trace).mode is OscillationMode.EVENLY_SPACED

        # 3. characterization: jitter figure for provisioning.
        sigma = result.trace.period_jitter_ps()
        assert 2.0 < sigma < 5.0

        # 4. TRNG: provision, generate, and judge.
        period = ring.predicted_period_ps()
        trng = PhaseWalkTrng(
            period, sigma, ring.mean_supply_weight,
            reference_period_for_q(period, sigma, 0.25),
        )
        bits = trng.generate(30_000, seed=10)
        assert run_battery(bits).all_passed
        assert assess_min_entropy(bits).min_entropy > 0.7
        assert HealthMonitor(claimed_min_entropy=0.9).check_block(bits)

    def test_same_design_family_dispersion(self, bank):
        """The Table II workflow: one ring design on every board of the bank."""
        frequencies = np.array(
            [SelfTimedRing.on_board(board, 96).predicted_frequency_mhz() for board in bank]
        )
        sigma_rel = float(np.std(frequencies) / np.mean(frequencies))
        assert 0.0002 < sigma_rel < 0.01

    def test_fresh_bank_reproduces_conclusions(self):
        """A brand-new family draw still yields the paper's verdicts."""
        from repro.core.campaign import RingSpec, run_campaign

        bank = BoardBank.manufacture(board_count=5, seed=4242)
        report = run_campaign(
            [RingSpec("iro", 5), RingSpec("str", 96)],
            bank=bank,
            jitter_periods=768,
            seed=5,
        )
        iro = report.result_for("IRO 5C")
        str_ = report.result_for("STR 96C")
        assert str_.delta_f < iro.delta_f
        assert str_.sigma_rel < iro.sigma_rel
        assert str_.period_jitter_ps < iro.period_jitter_ps

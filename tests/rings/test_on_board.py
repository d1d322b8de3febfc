"""Placing IROs and STRs on a board: the design-to-silicon step.

``on_board`` is the only path from a ring design (family, stage count,
first LUT) to resolved per-stage timings, so these tests pin its
structure: which hops pay the inter-LAB delay, how tokens are chosen,
and what a manufactured bank does to one design.
"""

import numpy as np
import pytest

from repro.fpga.placement import RoutingClass, place_ring
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing

SIZES = (3, 5, 16, 17, 33, 96)


def nominal_stage_delays(board, stage_count, first_lut=0):
    """LUT + routing delay of each hop, straight from the timing constants."""
    constants = board.calibration.constants
    placement = place_ring(stage_count, constants.lab_capacity, first_lut)
    return np.array(
        [constants.lut_delay_ps + constants.route_delay_ps(hop) for hop in placement.hop_classes]
    )


class TestRouteDelay:
    def test_intra_lab(self, board):
        constants = board.calibration.constants
        assert constants.route_delay_ps(RoutingClass.INTRA_LAB) == constants.intra_lab_route_ps

    def test_inter_lab(self, board):
        constants = board.calibration.constants
        assert constants.route_delay_ps(RoutingClass.INTER_LAB) == constants.inter_lab_route_ps


class TestIroOnBoard:
    @pytest.mark.parametrize("stage_count", SIZES)
    def test_stage_delays_follow_hop_classes(self, board, stage_count):
        ring = InverterRingOscillator.on_board(board, stage_count)
        assert ring.stage_count == stage_count
        np.testing.assert_allclose(
            ring.stage_delays_ps, nominal_stage_delays(board, stage_count)
        )

    @pytest.mark.parametrize("stage_count", SIZES)
    def test_period_is_two_laps(self, board, stage_count):
        ring = InverterRingOscillator.on_board(board, stage_count)
        assert ring.predicted_period_ps() == pytest.approx(
            2.0 * nominal_stage_delays(board, stage_count).sum()
        )

    def test_wrap_hop_is_inter_lab_once_the_ring_leaves_its_lab(self, board):
        delays = InverterRingOscillator.on_board(board, 17).stage_delays_ps
        # LUT 15 -> 16 crosses into LAB 1; LUT 16 -> 0 wraps back.
        assert np.flatnonzero(delays > 300.0).tolist() == [15, 16]

    def test_first_lut_shifts_the_lab_boundary(self, board):
        ring = InverterRingOscillator.on_board(board, 5, first_lut=14)
        np.testing.assert_allclose(ring.stage_delays_ps, [266.0, 361.0, 266.0, 266.0, 361.0])

    def test_name(self, board):
        assert InverterRingOscillator.on_board(board, 9).name == "IRO 9C"

    def test_rejects_empty_ring(self, board):
        with pytest.raises(ValueError):
            InverterRingOscillator.on_board(board, 0)

    def test_same_board_same_ring(self, bank):
        first = InverterRingOscillator.on_board(bank[0], 5)
        again = InverterRingOscillator.on_board(bank[0], 5)
        np.testing.assert_array_equal(first.stage_delays_ps, again.stage_delays_ps)

    def test_bank_disperses_one_design(self, bank):
        delays = np.array(
            [InverterRingOscillator.on_board(device, 5).stage_delays_ps for device in bank]
        )
        assert len({tuple(row) for row in delays}) == len(bank)
        np.testing.assert_allclose(delays, 266.0, rtol=0.05)

    def test_neighbouring_rings_draw_their_own_mismatch(self, bank):
        left = InverterRingOscillator.on_board(bank[0], 5, first_lut=0)
        right = InverterRingOscillator.on_board(bank[0], 5, first_lut=5)
        assert not np.array_equal(left.stage_delays_ps, right.stage_delays_ps)


class TestStrOnBoard:
    @pytest.mark.parametrize(
        "stage_count,tokens", [(3, 2), (8, 4), (17, 8), (48, 24), (96, 48)]
    )
    def test_balanced_token_count_by_default(self, board, stage_count, tokens):
        ring = SelfTimedRing.on_board(board, stage_count)
        assert ring.token_count == tokens
        assert ring.bubble_count == stage_count - tokens

    @pytest.mark.parametrize("stage_count", SIZES)
    def test_diagram_static_delays_follow_hop_classes(self, board, stage_count):
        ring = SelfTimedRing.on_board(board, stage_count)
        static = [diagram.parameters.static_delay_ps for diagram in ring.diagrams]
        np.testing.assert_allclose(static, nominal_stage_delays(board, stage_count))

    def test_diagrams_are_symmetric_with_positive_charlie(self, board):
        ring = SelfTimedRing.on_board(board, 24)
        assert all(diagram.parameters.is_symmetric for diagram in ring.diagrams)
        assert all(diagram.parameters.charlie_ps > 0.0 for diagram in ring.diagrams)

    def test_explicit_token_count(self, board):
        ring = SelfTimedRing.on_board(board, 12, token_count=4)
        assert ring.token_count == 4
        assert ring.bubble_count == 8

    def test_name(self, board):
        assert SelfTimedRing.on_board(board, 96).name == "STR 96C"

    @pytest.mark.parametrize(
        "stage_count,token_count", [(2, None), (8, 3), (8, 8)]
    )
    def test_rejects_unrealizable_rings(self, board, stage_count, token_count):
        with pytest.raises(ValueError):
            SelfTimedRing.on_board(board, stage_count, token_count=token_count)

    def test_shares_the_iro_placement_on_every_board(self, bank):
        for device in bank:
            str_ring = SelfTimedRing.on_board(device, 24, first_lut=7)
            iro = InverterRingOscillator.on_board(device, 24, first_lut=7)
            static = [diagram.parameters.static_delay_ps for diagram in str_ring.diagrams]
            np.testing.assert_allclose(static, iro.stage_delays_ps)
            np.testing.assert_allclose(str_ring.jitter_sigmas_ps, iro.jitter_sigmas_ps)

"""Ring placement policy."""

import pytest

from repro.fpga.placement import Placement, RoutingClass, place_ring


def inter_lab_hops(placement):
    return placement.hop_classes.count(RoutingClass.INTER_LAB)


class TestPlaceRing:
    def test_single_lab_ring(self):
        placement = place_ring(5, lab_capacity=16)
        assert placement.stage_count == 5
        assert placement.lab_count == 1
        assert inter_lab_hops(placement) == 0

    def test_exactly_full_lab(self):
        placement = place_ring(16, lab_capacity=16)
        assert placement.lab_count == 1
        assert inter_lab_hops(placement) == 0

    @pytest.mark.parametrize(
        "stage_count,expected_inter",
        [(17, 2), (24, 2), (48, 3), (80, 5), (96, 6)],
    )
    def test_inter_lab_hops_match_lab_count(self, stage_count, expected_inter):
        placement = place_ring(stage_count, lab_capacity=16)
        assert inter_lab_hops(placement) == expected_inter
        assert placement.lab_count == expected_inter

    def test_wrap_hop_counted(self):
        placement = place_ring(24, lab_capacity=16)
        # The last hop closes the ring from LAB 1 back to LAB 0.
        assert placement.hop_classes[-1] is RoutingClass.INTER_LAB

    def test_first_lut_offsets_lab_assignment(self):
        placement = place_ring(4, lab_capacity=16, first_lut=14)
        # LUTs 14..17 straddle the LAB 0 / LAB 1 boundary.
        assert placement.lab_count == 2
        assert inter_lab_hops(placement) == 2

    def test_lut_indices_sequential(self):
        placement = place_ring(6, first_lut=10)
        assert placement.lut_indices == tuple(range(10, 16))

    @pytest.mark.parametrize("bad_kwargs", [
        {"stage_count": 0},
        {"stage_count": 4, "lab_capacity": 0},
        {"stage_count": 4, "first_lut": -1},
    ])
    def test_validation(self, bad_kwargs):
        with pytest.raises(ValueError):
            place_ring(**bad_kwargs)


class TestPlacementInvariants:
    def test_arrays_must_align(self):
        with pytest.raises(ValueError):
            Placement(
                lut_indices=(0, 1),
                lab_indices=(0,),
                hop_classes=(RoutingClass.INTRA_LAB,),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Placement(lut_indices=(), lab_indices=(), hop_classes=())


class TestLabCount:
    """A ring starting on a LAB boundary spans ``ceil(L / capacity)`` LABs."""

    @pytest.mark.parametrize(
        "stages,expected", [(1, 1), (16, 1), (17, 2), (32, 2), (33, 3), (96, 6)]
    )
    def test_aligned_span(self, stages, expected):
        assert place_ring(stages, lab_capacity=16).lab_count == expected

    @pytest.mark.parametrize(
        "first_lut,expected", [(0, 1), (8, 1), (9, 2), (15, 2), (16, 1)]
    )
    def test_offset_span(self, first_lut, expected):
        # An 8-stage ring fits one LAB only when it does not straddle a boundary.
        assert place_ring(8, lab_capacity=16, first_lut=first_lut).lab_count == expected

    def test_single_stage_ring_hops_to_itself(self):
        placement = place_ring(1)
        assert placement.hop_classes == (RoutingClass.INTRA_LAB,)

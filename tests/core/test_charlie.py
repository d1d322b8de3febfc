"""The Charlie diagram and drafting effect."""

import math

import numpy as np
import pytest

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect


class TestCharlieParameters:
    def test_symmetric_constructor(self):
        params = CharlieParameters.symmetric(100.0, 50.0)
        assert params.forward_delay_ps == params.reverse_delay_ps == 100.0
        assert params.is_symmetric
        assert params.static_delay_ps == 100.0
        assert params.separation_offset_ps == 0.0

    def test_asymmetric_offsets(self):
        params = CharlieParameters(forward_delay_ps=80.0, reverse_delay_ps=120.0, charlie_ps=30.0)
        assert params.static_delay_ps == pytest.approx(100.0)
        assert params.separation_offset_ps == pytest.approx(20.0)
        assert not params.is_symmetric

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"forward_delay_ps": 0.0, "reverse_delay_ps": 100.0, "charlie_ps": 10.0},
            {"forward_delay_ps": 100.0, "reverse_delay_ps": -1.0, "charlie_ps": 10.0},
            {"forward_delay_ps": 100.0, "reverse_delay_ps": 100.0, "charlie_ps": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CharlieParameters(**kwargs)


class TestCharlieDiagram:
    def test_equation_3_at_zero(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        assert diagram.delay_ps(0.0) == pytest.approx(150.0)

    def test_equation_3_general(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        for s in (-200.0, -30.0, 10.0, 75.0):
            assert diagram.delay_ps(s) == pytest.approx(100.0 + math.hypot(50.0, s))

    def test_symmetry(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        assert diagram.delay_ps(37.0) == pytest.approx(diagram.delay_ps(-37.0))

    def test_asymmetric_asymptotes(self):
        params = CharlieParameters(forward_delay_ps=80.0, reverse_delay_ps=120.0, charlie_ps=10.0)
        diagram = CharlieDiagram(params)
        # Token-limited: delay -> Dff + s for s -> +inf.
        assert diagram.delay_ps(1e6) == pytest.approx(80.0 + 1e6, rel=1e-6)
        # Bubble-limited: delay -> Drr - s for s -> -inf.
        assert diagram.delay_ps(-1e6) == pytest.approx(120.0 + 1e6, rel=1e-6)

    def test_array_matches_scalar(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        separations = np.linspace(-300, 300, 11)
        assert np.allclose(
            diagram.delay_array_ps(separations),
            [diagram.delay_ps(float(s)) for s in separations],
        )

    def test_slope_bounded(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        for s in np.linspace(-500, 500, 21):
            assert abs(diagram.slope(float(s))) < 1.0

    def test_slope_zero_at_bottom(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        assert diagram.slope(0.0) == 0.0

    def test_zero_charlie_slope_is_sign(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 0.0))
        assert diagram.slope(10.0) == pytest.approx(1.0)
        assert diagram.slope(-10.0) == pytest.approx(-1.0)
        assert diagram.slope(0.0) == 0.0

    def test_output_time_basic(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        # Simultaneous inputs at t = 10: fire at 10 + Ds + Dch.
        assert diagram.output_time_ps(10.0, 10.0) == pytest.approx(160.0)

    def test_output_time_causal(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        for t_forward, t_reverse in [(0.0, 500.0), (500.0, 0.0), (3.0, 4.0)]:
            fire = diagram.output_time_ps(t_forward, t_reverse)
            assert fire > max(t_forward, t_reverse)

    def test_separation(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        assert diagram.separation_ps(30.0, 10.0) == pytest.approx(10.0)

    def test_asymptote_gap_is_charlie_at_simultaneous_inputs(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        assert diagram.asymptote_gap_ps(0.0) == pytest.approx(50.0)

    def test_asymptote_gap_vanishes_in_the_linear_part(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        gaps = [diagram.asymptote_gap_ps(s) for s in (0.0, 50.0, 500.0, 5000.0)]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.5

    def test_asymptote_gap_centred_on_the_offset(self):
        params = CharlieParameters(forward_delay_ps=80.0, reverse_delay_ps=120.0, charlie_ps=10.0)
        diagram = CharlieDiagram(params)
        offset = params.separation_offset_ps
        assert diagram.asymptote_gap_ps(offset) == pytest.approx(10.0)
        assert diagram.asymptote_gap_ps(offset + 30.0) == pytest.approx(
            diagram.asymptote_gap_ps(offset - 30.0)
        )

    def test_gap_is_the_delay_above_the_asymptote(self):
        diagram = CharlieDiagram(CharlieParameters.symmetric(100.0, 50.0))
        for s in (-120.0, 0.0, 40.0):
            assert diagram.delay_ps(s) == pytest.approx(100.0 + abs(s) + diagram.asymptote_gap_ps(s))


class TestDraftingEffect:
    def test_inactive_by_default(self):
        assert not DraftingEffect().is_active
        assert DraftingEffect().reduction_ps(1.0) == 0.0

    def test_exponential_decay(self):
        drafting = DraftingEffect(amplitude_ps=40.0, time_constant_ps=100.0)
        assert drafting.reduction_ps(0.0) == pytest.approx(40.0)
        assert drafting.reduction_ps(100.0) == pytest.approx(40.0 / math.e)
        assert drafting.reduction_ps(1e6) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_elapsed(self):
        with pytest.raises(ValueError):
            DraftingEffect(amplitude_ps=1.0).reduction_ps(-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"amplitude_ps": -1.0}, {"time_constant_ps": 0.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DraftingEffect(**kwargs)

    def test_drafting_shortens_output_delay(self):
        params = CharlieParameters.symmetric(100.0, 50.0)
        lazy = CharlieDiagram(params)
        drafty = CharlieDiagram(params, DraftingEffect(amplitude_ps=30.0, time_constant_ps=200.0))
        # Stage fired recently (at t = 140, inputs at t = 10).
        assert drafty.output_time_ps(10.0, 10.0, last_output_time_ps=140.0) < lazy.output_time_ps(
            10.0, 10.0
        )

    def test_drafting_cannot_break_causality(self):
        params = CharlieParameters.symmetric(10.0, 1.0)
        diagram = CharlieDiagram(params, DraftingEffect(amplitude_ps=1000.0, time_constant_ps=1e6))
        fire = diagram.output_time_ps(5.0, 7.0, last_output_time_ps=6.9)
        assert fire > 7.0

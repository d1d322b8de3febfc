"""STR steady-state solver."""

import pytest

from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.core.temporal_model import (
    InvalidRingConfiguration,
    SteadyState,
    balanced_token_count,
    solve_steady_state,
    validate_token_configuration,
)


def symmetric_diagram(static=250.0, charlie=100.0):
    return CharlieDiagram(CharlieParameters.symmetric(static, charlie))


class TestValidation:
    @pytest.mark.parametrize(
        "stages,tokens",
        [(2, 2), (8, 0), (8, 3), (8, 8), (8, -2)],
    )
    def test_invalid_configurations(self, stages, tokens):
        with pytest.raises(InvalidRingConfiguration):
            validate_token_configuration(stages, tokens)

    @pytest.mark.parametrize("stages,tokens", [(3, 2), (8, 4), (96, 48), (32, 20)])
    def test_valid_configurations(self, stages, tokens):
        validate_token_configuration(stages, tokens)


class TestBalancedTokenCount:
    @pytest.mark.parametrize(
        "stages,expected", [(4, 2), (8, 4), (96, 48), (10, 4), (7, 2), (3, 2)]
    )
    def test_values(self, stages, expected):
        assert balanced_token_count(stages) == expected

    def test_rejects_tiny(self):
        with pytest.raises(InvalidRingConfiguration):
            balanced_token_count(2)


class TestSolveSteadyState:
    def test_balanced_explicit_solution(self):
        # NT = NB with a symmetric diagram: s* = 0, D_hop = Ds + Dch.
        state = solve_steady_state(symmetric_diagram(250.0, 100.0), 8, 4)
        assert state.separation_ps == pytest.approx(0.0)
        assert state.hop_delay_ps == pytest.approx(350.0)
        assert state.period_ps == pytest.approx(4.0 * 350.0)
        assert state.charlie_slope == pytest.approx(0.0)
        assert state.regulation_margin == pytest.approx(1.0)

    def test_balanced_period_independent_of_length(self):
        diagram = symmetric_diagram()
        period_8 = solve_steady_state(diagram, 8, 4).period_ps
        period_96 = solve_steady_state(diagram, 96, 48).period_ps
        assert period_8 == pytest.approx(period_96)

    def test_token_starved_ring_slows(self):
        diagram = symmetric_diagram(250.0, 100.0)
        balanced = solve_steady_state(diagram, 32, 16)
        starved = solve_steady_state(diagram, 32, 10)
        assert starved.period_ps > balanced.period_ps
        assert starved.separation_ps > 0.0

    def test_token_crowded_ring(self):
        diagram = symmetric_diagram(250.0, 100.0)
        crowded = solve_steady_state(diagram, 32, 20)
        assert crowded.separation_ps < 0.0
        # Fewer bubbles: each token waits longer per revolution, so the
        # output period still exceeds the balanced one.
        balanced = solve_steady_state(diagram, 32, 16)
        assert crowded.period_ps > balanced.period_ps

    def test_fixed_point_consistency(self):
        # charlie(s*) = rho * D_hop must hold at the returned point.
        diagram = symmetric_diagram(250.0, 80.0)
        state = solve_steady_state(diagram, 32, 10)
        rho = 32 / (2.0 * 10)
        assert diagram.delay_ps(state.separation_ps) == pytest.approx(
            rho * state.hop_delay_ps, rel=1e-9
        )
        assert state.separation_ps == pytest.approx((rho - 1.0) * state.hop_delay_ps, rel=1e-9)

    def test_asymmetric_diagram_balanced(self):
        params = CharlieParameters(forward_delay_ps=200.0, reverse_delay_ps=300.0, charlie_ps=80.0)
        state = solve_steady_state(CharlieDiagram(params), 8, 4)
        # Generic branch: the fixed point must satisfy the same relations.
        assert state.hop_delay_ps == pytest.approx(
            CharlieDiagram(params).delay_ps(state.separation_ps), rel=1e-9
        )

    def test_derived_properties(self):
        state = SteadyState(
            stage_count=8,
            token_count=4,
            hop_delay_ps=350.0,
            separation_ps=0.0,
            period_ps=1400.0,
            charlie_slope=0.25,
        )
        assert state.bubble_count == 4
        assert state.frequency_mhz == pytest.approx(1e6 / 1400.0)
        assert state.regulation_margin == pytest.approx(0.75)

    def test_invalid_config_raises(self):
        with pytest.raises(InvalidRingConfiguration):
            solve_steady_state(symmetric_diagram(), 8, 3)

    def test_matches_event_simulation(self):
        """Cross-validation: solver vs event-driven sim (noise-free)."""
        from repro.rings.str_ring import SelfTimedRing

        diagram = symmetric_diagram(250.0, 100.0)
        for stages, tokens in [(8, 4), (32, 10), (32, 20)]:
            ring = SelfTimedRing([diagram] * stages, tokens, jitter_sigmas_ps=0.0)
            solved = solve_steady_state(diagram, stages, tokens)
            result = ring.simulate(64, seed=0, warmup_periods=48)
            assert result.trace.mean_period_ps() == pytest.approx(
                solved.period_ps, rel=0.01
            ), f"L={stages}, NT={tokens}"

"""Token/bubble algebra."""

import numpy as np
import pytest

from repro.rings import tokens


class TestCensus:
    def test_simple_state(self):
        # C = [0, 1, 1, 0]: tokens where C[i] != C[i-1] (cyclic).
        state = [0, 1, 1, 0]
        assert tokens.count_tokens(state) == 2
        assert tokens.count_bubbles(state) == 2
        assert tokens.token_positions(state) == [1, 3]
        assert tokens.bubble_positions(state) == [0, 2]

    def test_census_pair(self):
        assert tokens.tokens_and_bubbles([0, 1, 1, 0, 0]) == (2, 3)

    def test_token_count_always_even(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = rng.integers(0, 2, size=rng.integers(3, 40))
            assert tokens.count_tokens(state) % 2 == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tokens.count_tokens([0, 1, 2])

    def test_rejects_short_state(self):
        with pytest.raises(ValueError):
            tokens.count_tokens([0, 1])

    def test_token_mask_marks_value_changes(self):
        # Stage i holds a token when it differs from its predecessor i-1.
        mask = tokens.token_mask([1, 1, 0, 0, 1])
        assert mask.tolist() == [False, False, True, False, True]

    def test_token_mask_agrees_with_positions(self):
        state = [0, 1, 1, 0, 1, 0, 0, 0]
        mask = tokens.token_mask(state)
        assert np.flatnonzero(mask).tolist() == tokens.token_positions(state)
        assert np.flatnonzero(~mask).tolist() == tokens.bubble_positions(state)

    def test_token_mask_of_uniform_state_is_empty(self):
        assert not tokens.token_mask([1, 1, 1, 1]).any()


class TestConstruction:
    def test_state_from_positions_round_trip(self):
        state = tokens.state_from_token_positions(8, [1, 5])
        assert tokens.token_positions(state) == [1, 5]

    def test_spread_evenly(self):
        state = tokens.spread_tokens_evenly(96, 48)
        assert tokens.count_tokens(state) == 48
        positions = np.array(tokens.token_positions(state))
        gaps = np.diff(np.concatenate([positions, [positions[0] + 96]]))
        assert gaps.max() - gaps.min() <= 1  # as even as integers allow

    def test_spread_small(self):
        state = tokens.spread_tokens_evenly(4, 2)
        assert tokens.count_tokens(state) == 2

    def test_cluster(self):
        state = tokens.cluster_tokens(12, 4)
        assert tokens.token_positions(state) == [0, 1, 2, 3]

    def test_odd_token_count_rejected(self):
        with pytest.raises(Exception):
            tokens.spread_tokens_evenly(8, 3)

    def test_too_many_tokens_rejected(self):
        with pytest.raises(Exception):
            tokens.spread_tokens_evenly(8, 8)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            tokens.state_from_token_positions(8, [1, 1])

    def test_out_of_range_positions_rejected(self):
        with pytest.raises(ValueError):
            tokens.state_from_token_positions(8, [1, 9])


class TestFiring:
    def test_fireable_requires_token_and_bubble(self):
        state = tokens.spread_tokens_evenly(5, 2)
        for stage in tokens.fireable_stages(state):
            predecessor = (stage - 1) % 5
            successor = (stage + 1) % 5
            assert state[stage] != state[predecessor]
            assert state[successor] == state[stage]

    def test_fire_moves_token_forward(self):
        state = tokens.spread_tokens_evenly(5, 2)
        stage = tokens.fireable_stages(state)[0]
        after = tokens.fire_stage(state, stage)
        assert (stage + 1) % 5 in tokens.token_positions(after)
        assert stage not in tokens.token_positions(after)

    def test_fire_conserves_census(self):
        state = tokens.spread_tokens_evenly(12, 6)
        for _ in range(50):
            stage = tokens.fireable_stages(state)[0]
            state = tokens.fire_stage(state, stage)
            assert tokens.tokens_and_bubbles(state) == (6, 6)

    def test_fire_unfireable_raises(self):
        state = tokens.spread_tokens_evenly(5, 2)
        not_fireable = [
            stage for stage in range(5) if stage not in tokens.fireable_stages(state)
        ][0]
        with pytest.raises(ValueError):
            tokens.fire_stage(state, not_fireable)

    def test_always_somebody_fireable(self):
        # Deadlock-freedom of valid configurations, explored dynamically.
        state = tokens.cluster_tokens(9, 4)
        for _ in range(100):
            fireable = tokens.fireable_stages(state)
            assert fireable, "valid STR configuration deadlocked"
            state = tokens.fire_stage(state, fireable[-1])

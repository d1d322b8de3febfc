"""Transition and Edge records."""

import pytest

from repro.simulation.events import Edge, Transition


class TestTransition:
    def test_fields(self):
        transition = Transition(time_ps=10.0, node=3, value=1, serial=7)
        assert transition.time_ps == 10.0
        assert transition.node == 3
        assert transition.value == 1
        assert transition.serial == 7

    def test_orders_by_time(self):
        early = Transition(time_ps=1.0, node=0, value=0, serial=5)
        late = Transition(time_ps=2.0, node=0, value=1, serial=1)
        assert early < late

    def test_serial_breaks_ties(self):
        first = Transition(time_ps=1.0, node=0, value=0, serial=1)
        second = Transition(time_ps=1.0, node=1, value=1, serial=2)
        assert first < second

    @pytest.mark.parametrize("bad_value", [-1, 2, 5])
    def test_rejects_non_binary_value(self, bad_value):
        with pytest.raises(ValueError):
            Transition(time_ps=0.0, node=0, value=bad_value)

    def test_immutable(self):
        transition = Transition(time_ps=0.0, node=0, value=0)
        with pytest.raises(AttributeError):
            transition.node = 1


class TestEdge:
    def test_polarity_rising(self):
        assert Edge(time_ps=1.0, node=0, value=1).polarity == 1

    def test_polarity_falling(self):
        assert Edge(time_ps=1.0, node=0, value=0).polarity == -1

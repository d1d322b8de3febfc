"""The discrete-event engine."""

import pytest

from repro.simulation.engine import SimulationLimits, Simulator
from repro.simulation.events import Transition


class _Relay:
    """Toy process: node 0 toggles itself every `delay` ps."""

    def __init__(self, delay_ps: float = 10.0):
        self.delay_ps = delay_ps
        self.seen = []

    def start(self, simulator):
        simulator.schedule(self.delay_ps, 0, 1)

    def handle(self, simulator, transition):
        self.seen.append(transition)
        simulator.schedule(transition.time_ps + self.delay_ps, 0, 1 - transition.value)


class _Fanout:
    """Schedules several same-time events to exercise tie-breaking."""

    def __init__(self):
        self.order = []

    def start(self, simulator):
        for node in (3, 1, 2):
            simulator.schedule(5.0, node, 1)

    def handle(self, simulator, transition):
        self.order.append(transition.node)


class TestSimulationLimits:
    def test_requires_a_stop_condition(self):
        with pytest.raises(ValueError):
            SimulationLimits()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"until_ps": -1.0},
            {"max_events": 0},
            {"max_observed_edges": 0},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ValueError):
            SimulationLimits(**kwargs)


class TestSimulator:
    def test_until_limit(self):
        simulator = Simulator()
        process = _Relay(delay_ps=10.0)
        simulator.run(process, SimulationLimits(until_ps=55.0))
        assert len(process.seen) == 5
        assert simulator.now_ps == 50.0

    def test_max_events_limit(self):
        simulator = Simulator()
        process = _Relay()
        simulator.run(process, SimulationLimits(max_events=7))
        assert simulator.events_processed == 7

    def test_max_observed_edges_limit(self):
        simulator = Simulator()
        simulator.observe(0)
        process = _Relay()
        simulator.run(process, SimulationLimits(max_observed_edges=4))
        assert len(simulator.edges_for(0)) == 4

    def test_observation_records_values(self):
        simulator = Simulator()
        simulator.observe(0)
        simulator.run(_Relay(), SimulationLimits(max_observed_edges=3))
        values = [edge.value for edge in simulator.edges_for(0)]
        assert values == [1, 0, 1]

    def test_unobserved_node_raises(self):
        simulator = Simulator()
        simulator.run(_Relay(), SimulationLimits(max_events=1))
        with pytest.raises(KeyError):
            simulator.edges_for(1)

    def test_simultaneous_events_fifo(self):
        simulator = Simulator()
        process = _Fanout()
        simulator.run(process, SimulationLimits(max_events=10))
        assert process.order == [3, 1, 2]

    def test_scheduling_in_past_raises(self):
        simulator = Simulator()

        class BadProcess:
            def start(self, sim):
                sim.schedule(10.0, 0, 1)

            def handle(self, sim, transition):
                sim.schedule(transition.time_ps - 1.0, 0, 0)

        with pytest.raises(ValueError, match="cannot schedule"):
            simulator.run(BadProcess(), SimulationLimits(max_events=5))

    def test_time_is_monotone(self):
        simulator = Simulator()
        process = _Relay()
        times = []

        original_handle = process.handle

        def tracking_handle(sim, transition):
            times.append(sim.now_ps)
            original_handle(sim, transition)

        process.handle = tracking_handle
        simulator.run(process, SimulationLimits(max_events=10))
        assert times == sorted(times)


class TestStopReason:
    def test_queue_empty(self):
        from repro.simulation.engine import StopReason

        class OneShot:
            def start(self, sim):
                sim.schedule(1.0, 0, 1)

            def handle(self, sim, transition):
                pass  # schedules nothing: goes quiescent

        simulator = Simulator()
        reason = simulator.run(OneShot(), SimulationLimits(max_events=100))
        assert reason is StopReason.QUEUE_EMPTY

    def test_max_events(self):
        from repro.simulation.engine import StopReason

        simulator = Simulator()
        assert (
            simulator.run(_Relay(), SimulationLimits(max_events=3))
            is StopReason.MAX_EVENTS
        )

    def test_until(self):
        from repro.simulation.engine import StopReason

        simulator = Simulator()
        assert (
            simulator.run(_Relay(), SimulationLimits(until_ps=25.0))
            is StopReason.UNTIL_REACHED
        )

    def test_max_edges(self):
        from repro.simulation.engine import StopReason

        simulator = Simulator()
        simulator.observe(0)
        assert (
            simulator.run(_Relay(), SimulationLimits(max_observed_edges=2))
            is StopReason.MAX_OBSERVED_EDGES
        )

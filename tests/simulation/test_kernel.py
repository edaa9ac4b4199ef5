"""Unit tests for the Simulator run loop, clock and RNG streams."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Simulator


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(SimulationError):
            sim.run(until=3)

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.timeout(10).add_callback(lambda _e: fired.append(True))
        sim.run(until=5)
        assert sim.now == 5
        assert fired == []
        sim.run()
        assert fired == [True]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(4)
        assert sim.peek() == 4

    def test_peek_empty_queue_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_scheduling_in_the_past_raises(self, sim):
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim._schedule_at(5, sim.event())


class TestDeterminism:
    def test_same_seed_same_draws(self):
        first = [Simulator(seed=9).rng("x").random() for _ in range(5)]
        second = [Simulator(seed=9).rng("x").random() for _ in range(5)]
        assert first == second

    def test_different_streams_are_independent(self):
        sim = Simulator(seed=9)
        a1 = sim.rng("a").random()
        # Drawing from stream b must not perturb stream a.
        sim2 = Simulator(seed=9)
        sim2.rng("b").random()
        a2 = sim2.rng("a").random()
        assert a1 == a2

    def test_rng_stream_is_cached(self, sim):
        assert sim.rng("s") is sim.rng("s")

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            ev = sim.event()
            ev.add_callback(lambda _e, t=tag: order.append(t))
            ev.succeed()
        sim.run()
        assert order == ["first", "second", "third"]


class TestStrictMode:
    def test_unhandled_failure_raises_at_run_end(self, sim):
        sim.event().fail(RuntimeError("nobody listening"))
        with pytest.raises(SimulationError, match="unhandled"):
            sim.run()

    def test_defused_failure_is_silent(self, sim):
        ev = sim.event()
        ev.defused = True
        ev.fail(RuntimeError("expected"))
        sim.run()

    def test_non_strict_mode_collects_failures(self, lane):
        sim = Simulator(strict=False, scheduler=lane)
        sim.event().fail(RuntimeError("collected"))
        sim.run()
        assert len(sim.unhandled_failures) == 1

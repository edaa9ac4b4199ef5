"""Tests for the Simulator's condition facade and misc kernel surface."""

import pytest

from repro.simulation import Simulator

from tests.conftest import run_to_completion


class TestConditionFacade:
    def test_any_of_facade(self, sim):
        def proc(sim):
            fast = sim.timeout(1, value="f")
            result = yield sim.any_of([fast, sim.timeout(9)])
            return result[fast]

        assert run_to_completion(sim, proc(sim)) == "f"

    def test_all_of_facade(self, sim):
        def proc(sim):
            first = sim.timeout(1, value=1)
            second = sim.timeout(2, value=2)
            result = yield sim.all_of([first, second])
            return sorted(result.values())

        assert run_to_completion(sim, proc(sim)) == [1, 2]

    def test_nested_conditions(self, sim):
        def proc(sim):
            inner = sim.all_of([sim.timeout(1), sim.timeout(2)])
            outer = sim.any_of([inner, sim.timeout(10)])
            yield outer
            return sim.now

        assert run_to_completion(sim, proc(sim)) == 2


class TestSimulatorSurface:
    def test_seed_property(self):
        assert Simulator(seed=99).seed == 99

    def test_repr_mentions_time(self, sim):
        sim.run(until=4)
        assert "4" in repr(sim)

    def test_step_processes_single_event(self, sim):
        fired = []
        sim.timeout(1).add_callback(lambda _e: fired.append(1))
        sim.timeout(2).add_callback(lambda _e: fired.append(2))
        sim.step()
        assert fired == [1]
        assert sim.now == 1

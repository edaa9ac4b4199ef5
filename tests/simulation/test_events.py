"""Unit tests for simulation events and conditions."""

import pytest

from repro.errors import SimulationError, StaleEventError
from repro.simulation import AllOf, AnyOf, Simulator

from tests.conftest import run_to_completion


class TestSimEvent:
    def test_initially_untriggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(StaleEventError):
            _ = ev.value
        with pytest.raises(StaleEventError):
            _ = ev.ok

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        exc = RuntimeError("boom")
        ev.fail(exc)
        ev.defused = True
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc
        sim.run()

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(StaleEventError):
            ev.succeed()

    def test_succeed_after_fail_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError())
        ev.defused = True
        with pytest.raises(StaleEventError):
            ev.succeed()
        sim.run()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_runs_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("y")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["y"]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(2.5)
            return sim.now

        assert run_to_completion(sim, proc(sim)) == 2.5

    def test_timeout_value(self, sim):
        def proc(sim):
            value = yield sim.timeout(1.0, value="hello")
            return value

        assert run_to_completion(sim, proc(sim)) == "hello"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_fires_now(self, sim):
        def proc(sim):
            yield sim.timeout(0)
            return sim.now

        assert run_to_completion(sim, proc(sim)) == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []

        def waiter(sim, delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(waiter(sim, 3, "c"))
        sim.process(waiter(sim, 1, "a"))
        sim.process(waiter(sim, 2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_cannot_trigger_timeout_manually(self, sim):
        timeout = sim.timeout(1)
        with pytest.raises(StaleEventError):
            timeout.succeed()


class _ConditionCases:
    """What every condition shares: failures, the empty list and the
    one-simulator rule live in ``Condition``'s constructor and in each
    ``_check``'s failure branch, so both conditions run these."""

    condition = AnyOf

    def test_failure_of_child_fails_condition(self, sim):
        def proc(sim):
            ev = sim.event()
            sim.timeout(0.5).add_callback(lambda _e: ev.fail(RuntimeError("child died")))
            try:
                yield self.condition(sim, [ev, sim.timeout(10)])
            except RuntimeError as exc:
                return str(exc)

        assert run_to_completion(sim, proc(sim)) == "child died"

    def test_late_failure_after_a_failure_is_defused(self, sim):
        def proc(sim):
            first, late = sim.event(), sim.event()
            sim.timeout(1).add_callback(lambda _e: first.fail(RuntimeError("first")))
            sim.timeout(5).add_callback(lambda _e: late.fail(RuntimeError("late")))
            try:
                yield self.condition(sim, [first, late])
            except RuntimeError as exc:
                return str(exc)

        assert run_to_completion(sim, proc(sim)) == "first"
        sim.run()  # strict mode: no unhandled failure may remain

    def test_empty_condition_triggers_immediately(self, sim):
        def proc(sim):
            result = yield self.condition(sim, [])
            return result

        assert run_to_completion(sim, proc(sim)) == {}

    def test_mixed_simulators_rejected(self):
        sim_a = Simulator()
        sim_b = Simulator()
        with pytest.raises(ValueError):
            self.condition(sim_a, [sim_a.event(), sim_b.event()])


class TestAnyOf(_ConditionCases):
    condition = AnyOf

    def test_first_event_wins(self, sim):
        def proc(sim):
            fast = sim.timeout(1, value="fast")
            slow = sim.timeout(5, value="slow")
            result = yield AnyOf(sim, [fast, slow])
            return (fast in result, slow in result, sim.now)

        has_fast, has_slow, now = run_to_completion(sim, proc(sim))
        assert has_fast and not has_slow
        assert now == 1

    def test_late_failure_after_win_is_defused(self, sim):
        def proc(sim):
            ev = sim.event()
            sim.timeout(5).add_callback(lambda _e: ev.fail(RuntimeError("late")))
            result = yield AnyOf(sim, [sim.timeout(1), ev])
            return len(result)

        assert run_to_completion(sim, proc(sim)) == 1
        sim.run()  # strict mode: no unhandled failure may remain


class TestAllOf(_ConditionCases):
    condition = AllOf

    def test_waits_for_all(self, sim):
        def proc(sim):
            first = sim.timeout(1, value="a")
            second = sim.timeout(3, value="b")
            result = yield AllOf(sim, [first, second])
            return (result[first], result[second], sim.now)

        assert run_to_completion(sim, proc(sim)) == ("a", "b", 3)

    def test_already_triggered_children(self, sim):
        def proc(sim):
            ev = sim.event()
            ev.succeed("pre")
            sim.run_marker = True
            result = yield AllOf(sim, [ev])
            return result[ev]

        assert run_to_completion(sim, proc(sim)) == "pre"

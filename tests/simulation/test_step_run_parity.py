"""``step()``+``peek()`` must replay exactly what ``run()`` does.

``Simulator.run`` is a hand-tuned inline of the ``step`` algorithm
(moving an instant into the due queue, bound locals); this suite is the
drift guard the two copies are maintained under: a nontrivial scenario driven
entirely one ``step()`` at a time must finish with the identical trace,
clock, and unhandled-failure list as the same scenario under ``run()``
— on both schedulers, and with ``step`` and ``run`` interleaved.
"""

import pytest

from repro.simulation import Simulator
from repro.simulation.kernel import SCHEDULERS


def _start_scenario(sim):
    """A scenario touching every kernel feature step() must replay:
    same-time batches, races, joins, caught failures, and an
    unhandled failure."""
    trace = []

    def ticker(name, delay, iters):
        for i in range(iters):
            yield sim.timeout(delay)
            trace.append((name, i, sim.now))

    def racer():
        response = sim.event()
        sim.process(succeed_later(response))
        result = yield sim.any_of([response, sim.timeout(5.0)])
        trace.append(("race", sim.now, response in result))

    def succeed_later(event):
        yield sim.timeout(1.5)
        event.succeed("late")

    def joiner():
        result = yield sim.all_of([sim.timeout(0.5), sim.timeout(2.5)])
        trace.append(("join", sim.now, len(result)))

    def crasher():
        yield sim.timeout(0.25)
        raise RuntimeError("crash")

    def supervisor(child):
        try:
            yield child
        except RuntimeError as exc:
            trace.append(("caught", sim.now, str(exc)))

    def orphan_failure():
        # An event failure nobody consumes: lands in unhandled_failures.
        yield sim.timeout(0.75)
        sim.event().fail(ValueError("orphan"))

    for name, delay in (("a", 0.5), ("b", 0.5), ("c", 1.0)):
        sim.process(ticker(name, delay, 4))
    sim.process(racer())
    sim.process(joiner())
    sim.process(supervisor(sim.process(crasher())))
    sim.process(orphan_failure())
    return trace


def _snapshot(sim, trace):
    return (
        tuple(trace),
        sim.now,
        [repr(ev.value) for ev in sim.unhandled_failures],
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestStepRunParity:
    def test_pure_stepping_matches_run(self, scheduler):
        run_sim = Simulator(seed=3, strict=False, scheduler=scheduler)
        run_trace = _start_scenario(run_sim)
        run_sim.run()

        step_sim = Simulator(seed=3, strict=False, scheduler=scheduler)
        step_trace = _start_scenario(step_sim)
        steps = 0
        while step_sim.peek() != float("inf"):
            step_sim.step()
            steps += 1
            assert steps < 100_000, "step() driving diverged into a loop"

        assert _snapshot(step_sim, step_trace) == _snapshot(run_sim, run_trace)

    def test_peek_agrees_with_step_progress(self, scheduler):
        """peek() before each step names the timestamp that step lands
        on, and goes to inf exactly when the schedule drains."""
        sim = Simulator(seed=3, strict=False, scheduler=scheduler)
        _start_scenario(sim)
        while (upcoming := sim.peek()) != float("inf"):
            sim.step()
            assert sim.now == upcoming
        with pytest.raises(IndexError):
            sim.step()

    def test_interleaved_step_and_run_matches_run(self, scheduler):
        """Alternate step() bursts with run(until=...) windows — the
        half-drained-batch handoff between the two loops."""
        mixed = Simulator(seed=3, strict=False, scheduler=scheduler)
        mixed_trace = _start_scenario(mixed)
        burst = 0
        while mixed.peek() != float("inf"):
            burst += 1
            for _ in range(burst % 5):
                if mixed.peek() == float("inf"):
                    break
                mixed.step()
            if mixed.peek() != float("inf"):
                mixed.run(until=mixed.now + 0.4)

        pure = Simulator(seed=3, strict=False, scheduler=scheduler)
        pure_trace = _start_scenario(pure)
        pure.run()

        # Clocks may differ (run(until) rounds the idle tail up), but
        # the processed history and failure list must not.
        assert tuple(mixed_trace) == tuple(pure_trace)
        assert [repr(ev.value) for ev in mixed.unhandled_failures] == [
            repr(ev.value) for ev in pure.unhandled_failures
        ]

    def test_events_seen_by_step_and_run_are_identical(self, scheduler):
        """Count processed events under both drivers via a per-event
        callback, not just the user-visible trace."""
        counts = []
        for driver in ("run", "step"):
            sim = Simulator(seed=7, strict=False, scheduler=scheduler)
            seen = []

            def watcher(n=40):
                for i in range(n):
                    yield sim.timeout(0.1 * (1 + i % 4))
                    seen.append(round(sim.now, 9))

            sim.process(watcher())
            sim.process(watcher(25))
            if driver == "run":
                sim.run()
            else:
                while sim.peek() != float("inf"):
                    sim.step()
            counts.append(seen)
        assert counts[0] == counts[1]

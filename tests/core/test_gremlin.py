"""Tests for the Gremlin facade: declarative recipes and chained use."""

import time

import pytest

from repro.apps import build_twotier
from repro.core import (
    Crash,
    Degrade,
    Disconnect,
    Gremlin,
    Hang,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
    Overload,
    Recipe,
)
from repro.core.gremlin import SLICE_VIRTUAL, _drain
from repro.errors import CampaignTimeoutError, RecipeError
from repro.http import HttpResponse
from repro.loadgen import ClosedLoopLoad
from repro.logstore.store import EventStore
from repro.microservice import PolicySpec
from repro.simulation import Simulator


def make(policy=None, seed=3):
    deployment = build_twotier(
        policy=policy or PolicySpec(timeout=1.0, max_retries=5, retry_backoff_base=0.02)
    ).deploy(seed=seed)
    source = deployment.add_traffic_source("ServiceA")
    return deployment, source, Gremlin(deployment)


class TestRecipeValidation:
    def test_recipe_requires_scenarios(self):
        with pytest.raises(RecipeError):
            Recipe(name="empty", scenarios=[])

    def test_recipe_requires_name(self):
        with pytest.raises(RecipeError):
            Recipe(name="", scenarios=[Crash("x")])

    def test_recipe_type_checks_scenarios(self):
        with pytest.raises(RecipeError):
            Recipe(name="x", scenarios=["boom"])

    def test_recipe_type_checks_checks(self):
        with pytest.raises(RecipeError):
            Recipe(name="x", scenarios=[Crash("b")], checks=["not a check"])


class TestRunRecipe:
    def test_full_cycle_pass(self):
        deployment, source, gremlin = make()
        load = ClosedLoopLoad(num_requests=1)
        recipe = Recipe(
            name="example-1",
            scenarios=[Disconnect("ServiceA", "ServiceB")],
            checks=[HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s")],
            load=lambda deployment: load.driver(source),
        )
        result = gremlin.run_recipe(recipe)
        assert result.passed
        assert result.orchestration_time > 0
        assert result.assertion_time > 0
        assert result.window[1] > result.window[0]
        # Faults were cleaned up afterwards.
        for agent in deployment.agents:
            assert agent.list_rules() == []

    def test_report_is_readable(self):
        _deployment, source, gremlin = make()
        load = ClosedLoopLoad(num_requests=1)
        recipe = Recipe(
            name="report-demo",
            scenarios=[Overload("ServiceB")],
            checks=[HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s")],
            load=lambda deployment: load.driver(source),
        )
        report = gremlin.run_recipe(recipe).report()
        assert "report-demo" in report
        assert "orchestration" in report
        assert "HasBoundedRetries" in report

    def test_checks_scoped_to_recipe_window(self):
        """Traffic from an earlier recipe must not leak into the next."""
        deployment, source, gremlin = make(
            policy=PolicySpec(timeout=1.0, max_retries=50, retry_backoff_base=0.001,
                              retry_backoff_factor=1.0)
        )
        load1 = ClosedLoopLoad(num_requests=1)
        bad = gremlin.run_recipe(
            Recipe(
                name="unbounded-run",
                scenarios=[Disconnect("ServiceA", "ServiceB")],
                checks=[HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s")],
                load=lambda deployment: load1.driver(source),
            )
        )
        assert not bad.passed
        # Second recipe: no load at all -> inconclusive, not polluted by
        # the 51 requests of the previous run.
        second = gremlin.run_recipe(
            Recipe(
                name="empty-window",
                scenarios=[Disconnect("ServiceA", "ServiceB")],
                checks=[HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s")],
            )
        )
        assert second.checks[0].inconclusive

    def test_failures_listed(self):
        _deployment, source, gremlin = make(policy=PolicySpec(timeout=1.0, max_retries=50,
                                                              retry_backoff_base=0.001,
                                                              retry_backoff_factor=1.0))
        load = ClosedLoopLoad(num_requests=1)
        result = gremlin.run_recipe(
            Recipe(
                name="fails",
                scenarios=[Disconnect("ServiceA", "ServiceB")],
                checks=[HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s")],
                load=lambda deployment: load.driver(source),
            )
        )
        assert len(result.failures) == 1


class TestChainedFailures:
    def test_paper_section_4_2_chained_style(self):
        """Overload -> bounded retries? -> Crash -> circuit breaker?

        The imperative chaining of paper Section 4.2, written exactly as
        an operator would.
        """
        deployment, source, gremlin = make(
            policy=PolicySpec(
                timeout=0.5,
                max_retries=5,
                retry_backoff_base=0.02,
                breaker_failure_threshold=5,
                breaker_recovery_timeout=5.0,
                fallback=lambda request: HttpResponse(200, body=b"cached"),
            ),
            seed=13,
        )
        sim = deployment.sim

        # Step 1: overload, verify bounded retries.
        gremlin.inject(Overload("ServiceB", abort_fraction=1.0))
        ClosedLoopLoad(num_requests=1).run(source)
        step1 = gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s"))
        gremlin.clear()
        assert step1.passed, step1.detail

        # Step 1 tripped ServiceA's breaker; give it healthy traffic
        # past the recovery window so the circuit closes again before
        # the next experiment (state persists across faults — as in a
        # real deployment).
        sim.run(until=sim.now + 6.0)
        ClosedLoopLoad(num_requests=3, think_time=0.1, uri="/warm").run(source)

        # Step 2: escalate to a crash, verify the circuit breaker.
        window_start = sim.now
        gremlin.inject(Crash("ServiceB"))
        ClosedLoopLoad(num_requests=60, think_time=0.2).run(source)
        step2 = gremlin.check(
            HasCircuitBreaker("ServiceA", "ServiceB", threshold=5, tdelta="4s"),
            since=window_start,
        )
        gremlin.clear()
        assert step2.passed, step2.data.get("trace")

    STAGES = [
        Overload("ServiceB", abort_fraction=1.0),
        Degrade("ServiceB", interval="2s"),
        Disconnect("ServiceA", "ServiceB"),
        Hang("ServiceB", interval="3s"),
        Crash("ServiceB"),
        Overload("ServiceB"),
    ]
    CHECKS = [
        HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s"),
        HasCircuitBreaker("ServiceA", "ServiceB", threshold=5, tdelta="4s"),
        HasTimeouts("ServiceB", "1s"),
        HasBulkhead("ServiceA", "ServiceB", rate=1.0),
    ]

    def test_chained_session_same_verdicts_on_indexed_and_linear_store(self):
        """Six inject / check(since=stage) / check() / clear stages on
        one deployment whose log keeps growing; at every check point the
        same checks over a linear-scan store holding the same log (the
        oracle) give the same verdicts."""
        deployment, source, gremlin = make(seed=13)
        verdicts = []
        for scenario in self.STAGES:
            since = deployment.sim.now
            gremlin.inject(scenario)
            ClosedLoopLoad(num_requests=4, think_time=0.1).run(source)
            linear = EventStore(strategy="linear")
            linear.extend(deployment.store.all_records())
            assert [r.to_dict() for r in linear.all_records()] == [
                r.to_dict() for r in deployment.store.all_records()
            ]
            for check in self.CHECKS:
                for window in (since, None):
                    indexed = gremlin.check(check, since=window)
                    oracle = check.run(linear, since=window)
                    verdict = (indexed.name, indexed.passed, indexed.inconclusive, indexed.detail)
                    assert verdict == (
                        oracle.name, oracle.passed, oracle.inconclusive, oracle.detail
                    )
                    verdicts.append(verdict)
            gremlin.clear()
        assert deployment.store.strategy == "indexed"
        assert len(verdicts) == 2 * len(self.STAGES) * len(self.CHECKS)
        assert {passed for _, passed, _, _ in verdicts} == {True, False}  # not vacuous

    def test_query_helpers(self):
        deployment, source, gremlin = make()
        ClosedLoopLoad(num_requests=2).run(source)
        assert len(gremlin.get_requests("ServiceA", "ServiceB")) == 2
        assert len(gremlin.get_replies("ServiceA", "ServiceB")) == 2
        assert gremlin.get_requests("ServiceA", "ServiceB", id_pattern="user-*") == []


class _CountingRuns:
    """The simulator surface ``_drain`` uses, counting ``run`` calls."""

    def __init__(self, sim):
        self.sim = sim
        self.runs = 0

    @property
    def now(self):
        return self.sim.now

    def peek(self):
        return self.sim.peek()

    def run(self, until=None):
        self.runs += 1
        self.sim.run(until=until)


class TestDeadlineDrain:
    """A drain against a wall-clock deadline steps over virtual slices
    that hold no event: the clock ends where slice-by-slice draining
    left it, and only busy slices cost a ``run``."""

    @staticmethod
    def _hang_then_recover(lane):
        """Busy for a minute and a half, idle for about 20 h (a hang's
        window), then busy again: the shape a hang recipe leaves."""
        sim = Simulator(seed=5, scheduler=lane)
        sim.run(until=12.345)  # slice boundaries off the round numbers

        def work():
            for _ in range(9):
                yield sim.timeout(10.0)
            yield sim.timeout(72_000.0)
            for _ in range(4):
                yield sim.timeout(25.0)

        sim.process(work())
        return sim

    def test_an_idle_gap_ends_on_the_same_clock_in_few_runs(self, lane):
        reference = self._hang_then_recover(lane)
        slices = 0
        while reference.peek() != float("inf"):  # the slice-by-slice loop
            reference.run(until=reference.now + SLICE_VIRTUAL)
            slices += 1
        counted = _CountingRuns(self._hang_then_recover(lane))
        _drain(counted, deadline=float("inf"))
        assert counted.now == reference.now  # bit-identical, not approximately
        assert slices > 1_200
        assert counted.runs <= 5  # two busy slices each side of the gap

    def test_a_passed_deadline_still_raises(self, lane):
        for idle_first in (False, True):
            sim = self._hang_then_recover(lane)
            if idle_first:
                sim.run(until=sim.now + 95.0)  # the next event is ~20 h away
            before = sim.now
            with pytest.raises(CampaignTimeoutError):
                _drain(sim, deadline=time.monotonic() - 1.0)
            assert sim.now == before

"""Tests for the Gremlin facade: declarative recipes and chained use."""

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
from repro.errors import RecipeError
from repro.http import HttpResponse
from repro.loadgen import ClosedLoopLoad
from repro.microservice import PolicySpec


def make(policy=None, seed=3, **deploy_options):
    deployment = build_twotier(
        policy=policy or PolicySpec(timeout=1.0, max_retries=5, retry_backoff_base=0.02)
    ).deploy(seed=seed, **deploy_options)
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

    def _session(self, store_strategy):
        """Six inject / check(since=stage) / check() / clear stages on
        one deployment whose log keeps growing."""
        deployment, source, gremlin = make(seed=13, store_strategy=store_strategy)
        verdicts = []
        for scenario in self.STAGES:
            since = deployment.sim.now
            gremlin.inject(scenario)
            ClosedLoopLoad(num_requests=4, think_time=0.1).run(source)
            for check in self.CHECKS:
                for result in (gremlin.check(check, since=since), gremlin.check(check)):
                    verdicts.append(
                        (result.name, result.passed, result.inconclusive, result.detail)
                    )
            gremlin.clear()
        assert deployment.store.strategy == store_strategy
        return verdicts, [record.to_dict() for record in deployment.store.all_records()]

    def test_chained_session_same_verdicts_on_indexed_and_linear_store(self):
        indexed, indexed_log = self._session("indexed")
        linear, linear_log = self._session("linear")
        assert len(indexed) == 2 * len(self.STAGES) * len(self.CHECKS)
        assert indexed == linear
        assert indexed_log == linear_log
        assert {passed for _, passed, _, _ in indexed} == {True, False}  # not vacuous

    def test_query_helpers(self):
        deployment, source, gremlin = make()
        ClosedLoopLoad(num_requests=2).run(source)
        assert len(gremlin.get_requests("ServiceA", "ServiceB")) == 2
        assert len(gremlin.get_replies("ServiceA", "ServiceB")) == 2
        assert gremlin.get_requests("ServiceA", "ServiceB", id_pattern="user-*") == []

"""Tests for fleet execution: isolation, determinism, flake detection."""

import threading
import time

import pytest

from repro.apps import build_twotier, build_wordpress_app
from repro.campaign import CampaignRunner, RecipeExecutor, derive_seed, plan_campaign
from repro.campaign.results import CheckOutcome, RecipeOutcome
from repro.campaign import runner as runner_module
from repro.campaign.runner import _classify
from repro.errors import CampaignError


def outcome_key(outcome):
    return (
        outcome.name,
        outcome.status,
        outcome.seed,
        outcome.classification,
        tuple(round(sample, 9) for sample in outcome.latencies),
        tuple(check.passed for check in outcome.checks),
    )


class TestClassify:
    def check(self, passed, inconclusive=False):
        return CheckOutcome(name="c", passed=passed, inconclusive=inconclusive, detail="")

    def test_empty_is_inconclusive(self):
        assert _classify([]) == "inconclusive"

    def test_all_pass(self):
        assert _classify([self.check(True), self.check(True)]) == "pass"

    def test_any_conclusive_failure_fails(self):
        assert _classify([self.check(True), self.check(False)]) == "fail"

    def test_inconclusive_does_not_fail(self):
        checks = [self.check(True), self.check(False, inconclusive=True)]
        assert _classify(checks) == "inconclusive"


class TestRecipeExecutor:
    def test_executes_one_recipe(self):
        plan = plan_campaign(lambda: build_twotier(), requests=5)
        executor = RecipeExecutor(build_twotier)
        outcome = executor.execute(plan.entries[0])
        assert outcome.status in ("pass", "fail", "inconclusive")
        assert outcome.checks, "checks should have been evaluated"
        assert outcome.latencies, "the load driver should have produced samples"
        assert outcome.window[1] > outcome.window[0]
        assert outcome.seed == plan.entries[0].seed

    def test_timeout_produces_timeout_outcome(self):
        plan = plan_campaign(lambda: build_twotier(), requests=5)
        # The deadline has passed by the first check, before any slice runs.
        executor = RecipeExecutor(build_twotier, timeout=1e-9)
        outcome = executor.execute(plan.entries[0])
        assert outcome.status == "timeout"
        assert "wall-clock budget" in outcome.error

    def test_factory_error_is_isolated(self):
        plan = plan_campaign(lambda: build_twotier(), requests=5)

        def exploding_factory():
            raise RuntimeError("infrastructure on fire")

        outcome = RecipeExecutor(exploding_factory).execute(plan.entries[0])
        assert outcome.status == "error"
        assert "RuntimeError: infrastructure on fire" in outcome.error

    def test_seed_override(self):
        plan = plan_campaign(lambda: build_twotier(), requests=3)
        outcome = RecipeExecutor(build_twotier).execute(plan.entries[0], seed=777)
        assert outcome.seed == 777

    def test_parameter_validation(self):
        with pytest.raises(CampaignError):
            RecipeExecutor(build_twotier, timeout=0)
        with pytest.raises(CampaignError):
            RecipeExecutor(build_twotier, pacing=-1)


class TestDeterminism:
    def test_outcomes_independent_of_worker_count(self):
        """The determinism contract: same plan + factory + seed =>
        identical outcomes whether run serially or on a fleet."""
        factory = build_wordpress_app
        plan = plan_campaign(factory, seed=31, requests=8)
        serial = CampaignRunner(factory, workers=1).run(plan)
        fleet = CampaignRunner(factory, workers=4).run(plan)
        assert [outcome_key(o) for o in serial.outcomes] == [
            outcome_key(o) for o in fleet.outcomes
        ]

    def test_outcomes_reported_in_plan_order(self):
        factory = build_wordpress_app
        plan = plan_campaign(factory, seed=31, requests=5)
        result = CampaignRunner(factory, workers=3).run(plan)
        assert [o.name for o in result.outcomes] == [e.name for e in plan.entries]

    def test_fleet_actually_uses_multiple_workers(self):
        factory = build_wordpress_app
        plan = plan_campaign(factory, seed=31, requests=5)
        # Pacing makes each recipe hold its worker for real time, so the
        # fleet visibly spreads work instead of one thread draining all.
        result = CampaignRunner(factory, workers=3, pacing=0.05).run(plan)
        assert len({o.worker for o in result.outcomes}) > 1


class _StubExecutor:
    """Scripted executor: returns canned statuses per recipe name."""

    def __init__(self, script):
        self.script = script  # name -> list of statuses, consumed in order
        self.calls = []  # (name, seed) of every execution
        self._lock = threading.Lock()

    def execute(self, planned, seed=None):
        with self._lock:
            self.calls.append((planned.name, planned.seed if seed is None else seed))
            statuses = self.script[planned.name]
            status = statuses.pop(0) if len(statuses) > 1 else statuses[0]
        return RecipeOutcome(
            index=planned.index,
            name=planned.name,
            pattern=planned.pattern,
            service=planned.service,
            seed=planned.seed if seed is None else seed,
            status=status,
        )

    def _execute(self, planned, seed, explain):
        # What a flake rerun calls: the same script.
        return self.execute(planned, seed)


class _StubRunner(CampaignRunner):
    def __init__(self, stub, **kwargs):
        super().__init__(build_twotier, **kwargs)
        self._stub = stub

    def _executor(self, stop_event=None):
        return self._stub


def twotier_plan(**kwargs):
    return plan_campaign(lambda: build_twotier(), seed=1, **kwargs)


class TestFlakeDetection:
    def test_broken_vs_flaky_classification(self):
        plan = twotier_plan()
        first, second = plan.entries[0].name, plan.entries[1].name
        stub = _StubExecutor(
            {
                first: ["fail", "fail", "fail"],  # fails under every seed
                second: ["fail", "fail", "pass"],  # seed-sensitive
            }
        )
        result = _StubRunner(stub, workers=1, rerun_failures=2).run(plan)
        broken = result.outcome(first)
        flaky = result.outcome(second)
        assert broken.classification == "broken"
        assert broken.attempts == ["fail", "fail", "fail"]
        assert flaky.classification == "flaky"
        assert flaky.attempts == ["fail", "fail", "pass"]
        assert [o.name for o in result.broken] == [first]
        assert [o.name for o in result.flaky] == [second]

    def test_reruns_use_perturbed_seeds(self):
        plan = twotier_plan()
        name = plan.entries[0].name
        stub = _StubExecutor(
            {entry.name: ["fail"] if entry.name == name else ["pass"] for entry in plan}
        )
        _StubRunner(stub, workers=1, rerun_failures=2).run(plan)
        rerun_seeds = [seed for called, seed in stub.calls[len(plan) :] if called == name]
        assert rerun_seeds == [
            derive_seed(plan.seed, name, attempt) for attempt in (1, 2)
        ]
        assert all(seed != derive_seed(plan.seed, name) for seed in rerun_seeds)

    def test_a_rerun_job_answers_with_the_status_alone(self):
        """A flake rerun's caller keeps only the status: the job skips
        the metrics snapshot and the attributions and ships a string."""
        plan = twotier_plan(requests=5)
        executor = RecipeExecutor(build_twotier)
        for entry in plan.entries[:4]:
            seed = derive_seed(plan.seed, entry.name, 1)
            full = executor.execute(entry, seed=seed)
            job = (entry, seed, True)
            assert runner_module._execute_job(0, job, executor) == full.status
        assert runner_module._crashed_outcome(job, "worker died") == "error"

    def test_passing_campaign_skips_reruns(self):
        plan = twotier_plan()
        stub = _StubExecutor({entry.name: ["pass"] for entry in plan})
        result = _StubRunner(stub, workers=1, rerun_failures=3).run(plan)
        assert len(stub.calls) == len(plan)
        assert result.passed
        assert all(o.attempts == ["pass"] for o in result.outcomes)


class TestFailFast:
    def test_remaining_entries_skipped(self):
        plan = twotier_plan()
        first = plan.entries[0].name
        stub = _StubExecutor({entry.name: ["fail"] for entry in plan})
        result = _StubRunner(stub, workers=1, fail_fast=True).run(plan)
        assert result.outcome(first).status == "fail"
        others = [o for o in result.outcomes if o.name != first]
        assert others and all(o.status == "skipped" for o in others)
        assert not result.passed

    def test_skipped_outcomes_keep_plan_metadata(self):
        plan = twotier_plan()
        stub = _StubExecutor({entry.name: ["fail"] for entry in plan})
        result = _StubRunner(stub, workers=1, fail_fast=True).run(plan)
        skipped = result.outcomes[-1]
        entry = plan.entries[-1]
        assert (skipped.pattern, skipped.service, skipped.seed) == (
            entry.pattern,
            entry.service,
            entry.seed,
        )


class TestFailFastStopEvent:
    """Fail-fast reaches recipes already running: the executor the
    ``_executor(stop_event=...)`` seam hands out pads its pacing floor
    on the very event the run's fleet sets when it stops."""

    def run_recording(self, monkeypatch, **kwargs):
        seen = {"fleets": [], "events": [], "executors": []}

        class RecordingFleet(runner_module.Fleet):
            def __init__(self, *args, **fleet_kwargs):
                super().__init__(*args, **fleet_kwargs)
                seen["fleets"].append(self)

        class SeamRunner(CampaignRunner):
            def _executor(self, stop_event=None):
                executor = super()._executor(stop_event=stop_event)
                seen["events"].append(stop_event)
                seen["executors"].append(executor)
                return executor

        monkeypatch.setattr(runner_module, "Fleet", RecordingFleet)
        SeamRunner(build_twotier, **kwargs).run(twotier_plan(requests=2, max_recipes=2))
        return seen

    def test_fail_fast_executor_waits_on_the_fleets_event(self, monkeypatch):
        seen = self.run_recording(monkeypatch, fail_fast=True, rerun_failures=1)
        # One fleet and one executor serve the main pass and the reruns.
        (fleet,), (event,), (executor,) = seen["fleets"], seen["events"], seen["executors"]
        assert isinstance(event, threading.Event)
        assert executor.stop_event is event
        assert fleet.stop_event is event
        assert fleet.spec.context is executor

    def test_without_fail_fast_the_executor_gets_no_event(self, monkeypatch):
        seen = self.run_recording(monkeypatch, fail_fast=False)
        assert seen["events"] == [None]
        assert seen["executors"][0].stop_event is None

    def test_conclusive_failure_wakes_a_paced_sibling(self):
        plan = plan_campaign(build_wordpress_app, seed=1)
        assert len(plan) > 2
        first = plan.entries[0].name

        pacing = threading.Event()

        class PacedStub(_StubExecutor):
            stop_event = None

            def execute(self, planned, seed=None):
                outcome = super().execute(planned, seed=seed)
                if planned.name == first:
                    # Fail only once a sibling is mid-floor.
                    assert pacing.wait(30.0)
                else:
                    # A paced recipe sleeping out its floor.
                    pacing.set()
                    assert self.stop_event.wait(30.0)
                return outcome

        stub = PacedStub(
            {e.name: ["fail"] if e.name == first else ["pass"] for e in plan}
        )

        class Runner(_StubRunner):
            def _executor(self, stop_event=None):
                stub.stop_event = stop_event
                return stub

        started = time.monotonic()
        result = Runner(stub, workers=2, fail_fast=True).run(plan)
        assert time.monotonic() - started < 10.0
        statuses = [o.status for o in result.outcomes]
        assert statuses[:2] == ["fail", "pass"]
        assert set(statuses[2:]) == {"skipped"}

    def test_fail_fast_on_the_process_lane_ships_the_executor_without_it(self):
        # threading.Event cannot be pickled; the worker's copy of the
        # executor pads blind, the campaign still stops dispatching.
        plan = twotier_plan(requests=2)
        result = CampaignRunner(
            build_twotier, workers=1, backend="processes", fail_fast=True
        ).run(plan)
        assert len(result.outcomes) == len(plan)
        assert not any(o.status == "error" for o in result.outcomes)


class TestValidation:
    def test_worker_count(self):
        with pytest.raises(CampaignError):
            CampaignRunner(build_twotier, workers=0)

    def test_rerun_count(self):
        with pytest.raises(CampaignError):
            CampaignRunner(build_twotier, rerun_failures=-1)

    def test_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown fleet backend"):
            CampaignRunner(build_twotier, backend="greenlets").run(twotier_plan())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(backend="bogus"), "unknown fleet backend 'bogus'"),
            (dict(timeout=-1), "timeout must be > 0 or None, got -1"),
            (dict(timeout=0), "timeout must be > 0 or None, got 0"),
            (dict(pacing=-2), "pacing must be >= 0, got -2"),
        ],
    )
    def test_refused_when_built_not_when_run(self, kwargs, message):
        # The same refusals Fleet and RecipeExecutor make, raised by the
        # constructor: nothing is planned, deployed or spawned first.
        with pytest.raises(CampaignError, match=f"^{message}"):
            CampaignRunner(build_twotier, **kwargs)

    def test_unpicklable_factory_on_the_process_lane(self):
        runner = CampaignRunner(lambda: build_twotier(), backend="processes")
        with pytest.raises(CampaignError, match="module-level factory"):
            runner.run(twotier_plan(requests=2))


class TestErrorIsolation:
    def test_fleet_survives_a_factory_that_always_raises(self):
        def exploding_factory():
            raise RuntimeError("boom")

        plan = twotier_plan(requests=2)
        result = CampaignRunner(exploding_factory, workers=2).run(plan)
        assert len(result.outcomes) == len(plan)
        assert all(o.status == "error" for o in result.outcomes)
        assert not result.passed

"""Parallel fleet execution of a campaign plan.

Execution model
---------------
Every planned recipe runs on its **own freshly-built deployment**,
materialized inside the worker from the campaign's deployment factory
and seeded with the entry's :func:`~repro.campaign.plan.derive_seed`
value.  Nothing is shared between recipes — no simulator, no event
store, no agent state — so an outcome depends only on
``(factory, recipe, seed)`` and never on which worker executed it,
how many workers ran, or in what order the queue drained.  That is the
determinism contract the campaign tests pin.

Workers come from the shared :class:`~repro.campaign.fleet.Fleet`,
held open for the whole run (main pass, then flake reruns), on one of
two backends.  ``threads`` (the default) pays no serialization cost
and overlaps everything that waits on the wall clock — the per-recipe
``pacing`` floor (modeling campaigns against live deployments, where
an experiment occupies a test slot for real time — fault windows, log
settling) and, in real-world embeddings, operator-supplied I/O — but
the simulated control/data plane is pure CPU, so under the GIL threads
cannot speed up compute-bound suites.  ``processes`` runs each recipe
in an isolated spawn-started interpreter: the executor is pickled to
each worker once, each planned entry (+ seed) is pickled out and its
outcome pickled back, which is what lets a CPU-bound campaign scale
across cores and lets a crashed worker be replaced without losing more
than the one job it held.  Both lanes run the same job function on the
same executor; outcomes are bit-for-bit identical across backends and
worker counts — the determinism contract the campaign tests pin.

Guard rails: a per-recipe wall-clock ``timeout`` is enforced
cooperatively by slicing the virtual-time run loop (the kernel's
``peek``/``run(until=...)``), ``fail_fast`` stops dispatching after the
first conclusive failure, and failed recipes are re-run with perturbed
seeds to separate *broken* behaviour (fails under every seed) from
*flaky* behaviour (seed-sensitive).
"""

from __future__ import annotations

import pickle
import threading
import time
import typing as _t

from repro.agent.rules import fresh_rule_ids
from repro.campaign.fleet import Fleet, ProcessWorkerSpec, resolve_workers
from repro.campaign.plan import CampaignPlan, DeploymentFactory, PlannedRecipe, derive_seed
from repro.campaign.results import CampaignResult, CheckOutcome, RecipeOutcome
from repro.core.gremlin import Gremlin
from repro.core.queries import QueryCache
from repro.errors import CampaignError, CampaignTimeoutError
from repro.loadgen import ClosedLoopLoad
from repro.observability.attribution import attribute_run

__all__ = ["RecipeExecutor", "CampaignRunner"]

#: Cap on serialized fault attributions per failing recipe, so one
#: pathological recipe cannot bloat the campaign dump.
MAX_ATTRIBUTIONS = 25


def _classify(checks: _t.Sequence[CheckOutcome]) -> str:
    """Fold a recipe's check outcomes into one status."""
    if not checks:
        return "inconclusive"
    if all(check.passed for check in checks):
        return "pass"
    if any(not check.passed and not check.inconclusive for check in checks):
        return "fail"
    return "inconclusive"


class RecipeExecutor:
    """Executes one planned recipe on a fresh, isolated deployment.

    Mirrors :meth:`Gremlin.run_recipe` (inject -> load -> settle ->
    drain -> check -> clear) but drives the simulator in bounded
    virtual-time slices so a wall-clock deadline can interrupt a
    runaway recipe between slices, and optionally pads each recipe to a
    ``pacing`` wall-clock floor.
    """

    def __init__(
        self,
        factory: DeploymentFactory,
        *,
        timeout: _t.Optional[float] = 60.0,
        pacing: float = 0.0,
        slice_virtual: float = 60.0,
        stop_event: _t.Optional[threading.Event] = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise CampaignError(f"timeout must be > 0 or None, got {timeout}")
        if pacing < 0:
            raise CampaignError(f"pacing must be >= 0, got {pacing}")
        if slice_virtual <= 0:
            raise CampaignError(f"slice_virtual must be > 0, got {slice_virtual}")
        self.factory = factory
        self.timeout = timeout
        self.pacing = pacing
        self.slice_virtual = slice_virtual
        #: Fleet-wide fail-fast signal: while padding a recipe to its
        #: pacing floor the executor waits on this event instead of
        #: sleeping blind, so a conclusive failure elsewhere releases
        #: the worker immediately rather than after the pacing interval.
        self.stop_event = stop_event

    def __getstate__(self) -> dict:
        # The fail-fast event lives in the dispatching process; a copy
        # pickled to a worker process pads its pacing floor blind.
        return {**self.__dict__, "stop_event": None}

    def execute(
        self, planned: PlannedRecipe, seed: _t.Optional[int] = None
    ) -> RecipeOutcome:
        """Run one planned recipe; never raises — failures become
        ``error``/``timeout`` outcomes so one bad recipe cannot take
        down the fleet."""
        started = time.monotonic()
        deadline = started + self.timeout if self.timeout is not None else None
        seed = planned.seed if seed is None else seed
        outcome = RecipeOutcome(
            index=planned.index,
            name=planned.name,
            pattern=planned.pattern,
            service=planned.service,
            seed=seed,
            status="error",
        )
        gremlin = None
        try:
            recipe = planned.recipe
            spec = planned.load
            deployment = self.factory().deploy(seed=seed)
            source = deployment.add_traffic_source(spec.entry, name=spec.source_name)
            gremlin = Gremlin(deployment)
            sim = deployment.sim

            window_start = sim.now
            orch_start = time.perf_counter()
            # Scoped rule numbering: ids (and the Rule#N strings baked
            # into attributions) restart at 1 for every recipe, so the
            # outcome is bit-for-bit identical across fleet backends,
            # worker counts, and whatever ran earlier in the process.
            with fresh_rule_ids():
                installation = gremlin.inject(*recipe.scenarios)
            outcome.orchestration_time = time.perf_counter() - orch_start

            load = ClosedLoopLoad(
                num_requests=spec.requests, think_time=spec.think_time, uri=spec.uri
            )
            sim.process(load.driver(source), name=f"load/{recipe.name}")
            if recipe.load is not None:
                sim.process(recipe.load(deployment), name=f"extra-load/{recipe.name}")
            self._run_drained(sim, deadline)
            settle = max(planned.settle, recipe.settle)
            if settle > 0:
                sim.run(until=sim.now + settle)
            drained = deployment.pipeline.drained()
            if not drained.triggered:
                self._run_drained(sim, deadline)
            window_end = sim.now
            outcome.window = (window_start, window_end)
            outcome.latencies = load.result.latencies

            assert_start = time.perf_counter()
            cache = QueryCache(deployment.store)
            for check in recipe.checks:
                for scope in check.scopes(since=window_start, until=window_end):
                    cache.search(scope)
            outcome.checks = [
                CheckOutcome.from_result(
                    check.run(cache, since=window_start, until=window_end)
                )
                for check in recipe.checks
            ]
            outcome.assertion_time = time.perf_counter() - assert_start
            outcome.status = _classify(outcome.checks)
            outcome.metrics = deployment.metrics_snapshot()
            if outcome.status == "fail":
                # Explain the failure: join the traces of faulted
                # requests against the rules this recipe installed.
                outcome.attributions = [
                    attribution.to_dict()
                    for attribution in attribute_run(
                        deployment.store,
                        installation.rules,
                        limit=MAX_ATTRIBUTIONS,
                    )
                ]
        except CampaignTimeoutError:
            outcome.status = "timeout"
            outcome.error = (
                f"recipe exceeded its {self.timeout:g}s wall-clock budget"
            )
        except Exception as exc:  # noqa: BLE001 - isolate fleet from one bad recipe
            outcome.status = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            if gremlin is not None:
                try:
                    gremlin.clear()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass
        outcome.wall_time = time.monotonic() - started
        if self.pacing > 0:
            remaining = self.pacing - outcome.wall_time
            if remaining > 0 and not (
                self.stop_event is not None and self.stop_event.is_set()
            ):
                if self.stop_event is not None:
                    # Wakes early the moment fail-fast trips fleet-wide.
                    self.stop_event.wait(remaining)
                else:
                    time.sleep(remaining)
            outcome.wall_time = time.monotonic() - started
        return outcome

    def _run_drained(self, sim, deadline: _t.Optional[float]) -> None:
        """Run the simulator until its event queue drains, in
        ``slice_virtual``-sized steps, checking the wall clock between
        slices."""
        while sim.peek() != float("inf"):
            if deadline is not None and time.monotonic() > deadline:
                raise CampaignTimeoutError()
            sim.run(until=sim.now + self.slice_virtual)


def _execute_job(
    worker_id: int,
    job: tuple[PlannedRecipe, _t.Optional[int]],
    executor: RecipeExecutor,
) -> RecipeOutcome:
    """Fleet entry point, on either backend: run one planned recipe
    (module-level, so it pickles to spawn-started workers)."""
    entry, seed = job
    outcome = executor.execute(entry, seed=seed)
    outcome.worker = worker_id
    return outcome


def _crashed_outcome(
    job: tuple[PlannedRecipe, _t.Optional[int]], detail: str
) -> RecipeOutcome:
    """Conversion of a job whose worker died (or whose execution
    raised) into a failed outcome, so a crash is a reported result —
    never a hang and never a silently missing plan entry."""
    entry, seed = job
    return RecipeOutcome(
        index=entry.index,
        name=entry.name,
        pattern=entry.pattern,
        service=entry.service,
        seed=entry.seed if seed is None else seed,
        status="error",
        error=f"fleet job crashed: {detail}",
    )


class CampaignRunner:
    """Executes a :class:`CampaignPlan` across N parallel workers.

    Parameters
    ----------
    factory:
        Deployment factory; each worker builds one fresh deployment per
        recipe from it.  The ``processes`` backend pickles it to the
        workers, so it must be an importable module-level callable.
    workers:
        Fleet size, or ``"auto"`` for one worker per CPU the process may
        run on (affinity- and cpuset-aware).  ``1`` executes serially.
    backend:
        ``"threads"`` (default; zero serialization, overlaps paced /
        I/O-bound recipes) or ``"processes"`` (spawn-isolated
        interpreters that parallelize CPU-bound suites and contain
        worker crashes).  Outcomes are identical either way.
    timeout:
        Per-recipe wall-clock budget in seconds (None disables).
    pacing:
        Minimum wall-clock seconds each recipe occupies its worker —
        models campaigns against live deployments where an experiment
        holds a test slot for real time.  0 runs at full simulation
        speed.
    fail_fast:
        Stop dispatching new recipes after the first conclusive
        failure; undispatched entries are reported as ``skipped``.
    rerun_failures:
        Flake detection: re-run each ``fail`` outcome this many times
        with perturbed seeds, classifying it ``flaky`` (passed at least
        once) or ``broken`` (failed every attempt).
    """

    def __init__(
        self,
        factory: DeploymentFactory,
        *,
        workers: _t.Union[int, str] = 1,
        backend: str = "threads",
        timeout: _t.Optional[float] = 60.0,
        pacing: float = 0.0,
        fail_fast: bool = False,
        rerun_failures: int = 0,
        slice_virtual: float = 60.0,
    ) -> None:
        if rerun_failures < 0:
            raise CampaignError(f"rerun_failures must be >= 0, got {rerun_failures}")
        self.factory = factory
        self.workers = resolve_workers(workers)
        self.backend = backend
        self.timeout = timeout
        self.pacing = pacing
        self.fail_fast = fail_fast
        self.rerun_failures = rerun_failures
        self.slice_virtual = slice_virtual

    def _executor(
        self, stop_event: _t.Optional[threading.Event] = None
    ) -> RecipeExecutor:
        return RecipeExecutor(
            self.factory,
            timeout=self.timeout,
            pacing=self.pacing,
            slice_virtual=self.slice_virtual,
            stop_event=stop_event,
        )

    def _open_fleet(self) -> Fleet:
        """The run's one fleet: every worker executes on the executor
        :meth:`_executor` hands out, which under ``fail_fast`` pads its
        pacing floor on the event the fleet sets when it stops."""
        stop_event = threading.Event() if self.fail_fast else None
        spec = ProcessWorkerSpec(
            target=_execute_job,
            context=self._executor(stop_event=stop_event),
            on_crash=_crashed_outcome,
        )
        return Fleet(
            spec, workers=self.workers, backend=self.backend, stop_event=stop_event
        )

    def run(self, plan: CampaignPlan) -> CampaignResult:
        """Execute the whole plan; returns outcomes in plan order."""
        started = time.perf_counter()
        # One fleet for the run: the flake wave reuses the main wave's
        # warm workers.
        with self._open_fleet() as fleet:
            executed = self._run_fleet(
                fleet,
                [(entry, None) for entry in plan.entries],
                fail_fast=self.fail_fast,
            )

            outcomes: list[RecipeOutcome] = []
            for position, entry in enumerate(plan.entries):
                outcome = executed.get(position)
                if outcome is None:
                    outcome = RecipeOutcome(
                        index=entry.index,
                        name=entry.name,
                        pattern=entry.pattern,
                        service=entry.service,
                        seed=entry.seed,
                        status="skipped",
                    )
                outcome.attempts = [outcome.status]
                outcomes.append(outcome)

            if self.rerun_failures > 0:
                self._detect_flakes(fleet, plan, outcomes)

        return CampaignResult(
            name=plan.name,
            app=plan.app,
            seed=plan.seed,
            workers=self.workers,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            rerun_failures=self.rerun_failures,
        )

    @staticmethod
    def _run_fleet(
        fleet: Fleet,
        jobs: _t.Sequence[tuple[PlannedRecipe, _t.Optional[int]]],
        fail_fast: bool = False,
    ) -> dict[int, RecipeOutcome]:
        """Drain ``(entry, seed_override)`` jobs through the fleet;
        returns outcomes keyed by job *position* (not plan index — flake
        reruns submit the same entry several times)."""
        try:
            return fleet.run(
                jobs,
                stop_when=(
                    (lambda outcome: outcome.conclusive_failure) if fail_fast else None
                ),
            )
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            raise CampaignError(
                "the processes backend pickles the deployment factory and"
                " plan entries to its workers; use a module-level factory"
                f" (not a lambda/closure): {exc}"
            ) from exc

    def _detect_flakes(
        self, fleet: Fleet, plan: CampaignPlan, outcomes: list[RecipeOutcome]
    ) -> None:
        """Re-run every ``fail`` outcome ``rerun_failures`` times with
        perturbed seeds and classify it broken vs flaky in place."""
        entries = {entry.index: entry for entry in plan.entries}
        failed = [outcome for outcome in outcomes if outcome.status == "fail"]
        if not failed:
            return
        jobs: list[tuple[PlannedRecipe, _t.Optional[int]]] = []
        owners: list[RecipeOutcome] = []
        for outcome in failed:
            entry = entries[outcome.index]
            for attempt in range(1, self.rerun_failures + 1):
                jobs.append((entry, derive_seed(plan.seed, entry.name, attempt)))
                owners.append(outcome)
        rerun = self._run_fleet(fleet, jobs)
        for position, owner in enumerate(owners):
            attempt_outcome = rerun.get(position)
            owner.attempts.append(
                attempt_outcome.status if attempt_outcome is not None else "skipped"
            )
        for outcome in failed:
            reruns = outcome.attempts[1:]
            outcome.classification = (
                "flaky" if any(status == "pass" for status in reruns) else "broken"
            )

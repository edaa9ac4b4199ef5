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

Workers come from the shared fleet (:mod:`repro.campaign.fleet`) and
run on one of two backends.  ``threads`` (the default) pays no
serialization cost and overlaps everything that waits on the wall
clock — the per-recipe ``pacing`` floor (modeling campaigns against
live deployments, where an experiment occupies a test slot for real
time — fault windows, log settling) and, in real-world embeddings,
operator-supplied I/O — but the simulated control/data plane is pure
CPU, so under the GIL threads cannot speed up compute-bound suites.
``processes`` runs each recipe in an isolated spawn-started
interpreter: the planned entry (+ seed) is pickled to the worker and
the outcome ships back as its compact dict form, which is what lets a
CPU-bound campaign scale across cores and lets a crashed worker be
replaced without losing more than the one job it held.  Outcomes are
bit-for-bit identical across backends and worker counts — the
determinism contract the campaign tests pin.

Guard rails: a per-recipe wall-clock ``timeout`` is enforced
cooperatively by slicing the virtual-time run loop (the kernel's
``peek``/``run(until=...)``), ``fail_fast`` stops dispatching after the
first conclusive failure, and failed recipes are re-run with perturbed
seeds to separate *broken* behaviour (fails under every seed) from
*flaky* behaviour (seed-sensitive).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import threading
import time
import typing as _t

from repro.agent.rules import fresh_rule_ids
from repro.campaign.fleet import (
    BACKENDS,
    ProcessPool,
    ProcessWorkerSpec,
    resolve_workers,
    run_fleet,
)
from repro.campaign.plan import CampaignPlan, DeploymentFactory, PlannedRecipe, derive_seed
from repro.campaign.results import (
    CONCLUSIVE_FAILURES,
    CampaignResult,
    CheckOutcome,
    RecipeOutcome,
)
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


def _process_execute(
    worker_id: int,
    job: tuple[PlannedRecipe, _t.Optional[int]],
    context: dict,
) -> dict:
    """Process-backend entry point: runs inside a worker interpreter.

    Rebuilds an executor from the pickled context, runs one planned
    recipe, and ships the outcome back in its compact serialized form
    (checks, metrics snapshot, fault attributions — everything
    :meth:`RecipeOutcome.to_dict` carries) for the parent to merge.
    """
    executor = RecipeExecutor(
        context["factory"],
        timeout=context["timeout"],
        pacing=context["pacing"],
        slice_virtual=context["slice_virtual"],
    )
    entry, seed = job
    outcome = executor.execute(entry, seed=seed)
    outcome.worker = worker_id
    return outcome.to_dict()


def _crashed_outcome(
    job: tuple[PlannedRecipe, _t.Optional[int]], detail: str
) -> dict:
    """Parent-side conversion of a dead worker's job into a failed
    outcome, so a crash is a reported result — never a hang and never a
    silently missing plan entry."""
    entry, seed = job
    return RecipeOutcome(
        index=entry.index,
        name=entry.name,
        pattern=entry.pattern,
        service=entry.service,
        seed=entry.seed if seed is None else seed,
        status="error",
        error=f"worker process died: {detail}",
    ).to_dict()


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
    batch_size:
        Process backend only: how many recipes ship per worker
        dispatch.  Batching amortizes the pickle/pipe round-trip when
        recipes are cheap; results still stream back per recipe, so
        crash attribution and fail-fast keep per-recipe precision.
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
        batch_size: int = 1,
    ) -> None:
        if backend not in BACKENDS:
            raise CampaignError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if rerun_failures < 0:
            raise CampaignError(f"rerun_failures must be >= 0, got {rerun_failures}")
        if batch_size < 1:
            raise CampaignError(f"batch_size must be >= 1, got {batch_size}")
        self.factory = factory
        self.workers = resolve_workers(workers)
        self.backend = backend
        self.timeout = timeout
        self.pacing = pacing
        self.fail_fast = fail_fast
        self.rerun_failures = rerun_failures
        self.slice_virtual = slice_virtual
        self.batch_size = batch_size
        #: Warm worker pool (processes backend): built lazily on the
        #: first fleet wave of a run and reused by the flake-rerun
        #: wave, so reruns skip the interpreter-spawn tax.  Closed at
        #: the end of every :meth:`run`.
        self._pool: _t.Optional[ProcessPool] = None

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

    def run(self, plan: CampaignPlan) -> CampaignResult:
        """Execute the whole plan; returns outcomes in plan order."""
        started = time.perf_counter()
        try:
            executed = self._run_fleet(
                [(entry, None) for entry in plan.entries], fail_fast=self.fail_fast
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
                # The flake wave reuses the main wave's warm workers.
                self._detect_flakes(plan, outcomes)
        finally:
            self._close_pool()

        return CampaignResult(
            name=plan.name,
            app=plan.app,
            seed=plan.seed,
            workers=self.workers,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            rerun_failures=self.rerun_failures,
        )

    def run_sharded(self, plan: CampaignPlan, shards: int) -> CampaignResult:
        """Execute the plan as ``shards`` independent partitions run
        concurrently, merging outcomes back into plan order.

        Entries are dealt round-robin so every shard sees the same
        priority mix, and each shard runs as its own sub-campaign —
        own fleet (``workers // shards`` each, minimum one), own warm
        pool, own flake reruns.  Outcomes are merged by plan index into
        a single :class:`CampaignResult`, so scorecards and reports
        aggregate across shards exactly as for an unsharded run.
        Determinism holds: per-recipe seeds derive from the campaign
        seed and recipe name alone, so sharding changes which fleet ran
        a recipe, never its outcome.  ``fail_fast`` applies within each
        shard independently (a failure stops that shard's dispatching;
        sibling shards run to completion).
        """
        if shards < 1:
            raise CampaignError(f"shards must be >= 1, got {shards}")
        shards = min(shards, len(plan.entries)) if plan.entries else 1
        if shards <= 1:
            return self.run(plan)
        started = time.perf_counter()
        partitions = [plan.entries[offset::shards] for offset in range(shards)]
        shard_workers = max(1, self.workers // shards)
        results: list[_t.Optional[CampaignResult]] = [None] * shards
        errors: list[BaseException] = []

        def run_shard(position: int) -> None:
            sub_plan = dataclasses.replace(
                plan,
                name=f"{plan.name}[shard {position + 1}/{shards}]",
                entries=partitions[position],
            )
            # A shallow copy inherits the full configuration (and any
            # subclass behaviour); each shard just gets its slice of
            # the worker budget and its own warm pool.
            runner = copy.copy(self)
            runner.workers = shard_workers
            runner._pool = None
            try:
                results[position] = runner.run(sub_plan)
            except BaseException as exc:  # noqa: BLE001 - reraised in parent
                errors.append(exc)

        threads = [
            threading.Thread(
                target=run_shard, args=(position,),
                name=f"campaign-shard-{position}", daemon=True,
            )
            for position in range(shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        outcomes = [
            outcome for result in results for outcome in result.outcomes
        ]
        outcomes.sort(key=lambda outcome: outcome.index)
        return CampaignResult(
            name=plan.name,
            app=plan.app,
            seed=plan.seed,
            workers=self.workers,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            rerun_failures=self.rerun_failures,
        )

    # -- fleet mechanics ---------------------------------------------------------

    def _run_fleet(
        self,
        jobs: _t.Sequence[tuple[PlannedRecipe, _t.Optional[int]]],
        fail_fast: bool = False,
    ) -> dict[int, RecipeOutcome]:
        """Drain ``(entry, seed_override)`` jobs through the worker
        fleet; returns outcomes keyed by job *position* (not plan
        index — flake reruns submit the same entry several times)."""
        if self.backend == "processes":
            return self._run_process_fleet(jobs, fail_fast)
        executors: dict[int, RecipeExecutor] = {}
        stop_signal = threading.Event()

        def execute(worker_id: int, job: tuple[PlannedRecipe, _t.Optional[int]]) -> RecipeOutcome:
            # One executor per worker thread (run_fleet calls a given
            # worker_id from one thread only, so no lock is needed).
            executor = executors.get(worker_id)
            if executor is None:
                executor = executors[worker_id] = self._executor(
                    stop_event=stop_signal if fail_fast else None
                )
            entry, seed = job
            outcome = executor.execute(entry, seed=seed)
            outcome.worker = worker_id
            return outcome

        return run_fleet(
            jobs,
            execute,
            workers=self.workers,
            stop_when=(lambda outcome: outcome.conclusive_failure) if fail_fast else None,
            stop_signal=stop_signal,
        )

    def _run_process_fleet(
        self,
        jobs: _t.Sequence[tuple[PlannedRecipe, _t.Optional[int]]],
        fail_fast: bool,
    ) -> dict[int, RecipeOutcome]:
        """Drain the same jobs through spawn-isolated worker processes.

        Each job pickles ``(PlannedRecipe, seed_override)`` out to a
        worker and gets back the outcome's compact dict form; the merge
        back into :class:`RecipeOutcome` happens here, so callers see
        identical objects whichever backend ran the campaign.  The
        worker pool is kept warm between waves of the same run (main
        pass, then flake reruns) and closed when the run finishes.
        """
        if self._pool is None:
            spec = ProcessWorkerSpec(
                target=_process_execute,
                context={
                    "factory": self.factory,
                    "timeout": self.timeout,
                    "pacing": self.pacing,
                    "slice_virtual": self.slice_virtual,
                },
                on_crash=_crashed_outcome,
            )
            self._pool = ProcessPool(
                spec, size=self.workers, batch_size=self.batch_size
            )
        try:
            raw = self._pool.run(
                jobs,
                stop_when=(
                    (lambda doc: doc["status"] in CONCLUSIVE_FAILURES)
                    if fail_fast
                    else None
                ),
            )
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            self._close_pool()
            raise CampaignError(
                "the processes backend pickles the deployment factory and"
                " plan entries to its workers; use a module-level factory"
                f" (not a lambda/closure): {exc}"
            ) from exc
        return {
            position: RecipeOutcome.from_dict(doc) for position, doc in raw.items()
        }

    def _close_pool(self) -> None:
        """Tear down the warm worker pool (hardened: join with timeout,
        then terminate/kill stragglers).  Safe to call when no pool was
        ever built."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()

    def _detect_flakes(
        self, plan: CampaignPlan, outcomes: list[RecipeOutcome]
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
        rerun = self._run_fleet(jobs)
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

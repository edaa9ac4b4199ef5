"""Fleet execution of exploration tasks.

Each task is one full simulated run
(:func:`~repro.core.gremlin.run_faulted`): deploy the seeded app,
install the coordinate's compiled rules, drive the manifest workload,
evaluate the manifest's pattern checks — then distill the outcome into
plain data.  A task is an app *name* plus scenario objects, so the same
task object runs on the thread fleet or pickles to a
forked process worker — the outcome, including the strict
store digest, is identical on either backend, on either scheduler
lane, at any worker count.  That equality is load-bearing: the
exploration loop's decisions (pruning, coverage boosts, bug tallies)
depend only on outcome contents, so exploration order is reproducible
everywhere.

Checks are rebuilt *inside* the worker from the module-level
:data:`~repro.apps.outages.SEEDED_BUG_SUITE` registry — check objects
never cross a process boundary.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.outages import SEEDED_BUG_SUITE, SeededBugManifest
from repro.campaign.fleet import Fleet, ProcessWorkerSpec
from repro.core.gremlin import (
    LoadSpec,
    run_faulted,
    shape_digests_of,
    strict_digest,
    strict_records,
)
from repro.core.scenarios import FailureScenario
from repro.errors import ExploreError
from repro.fuzz.spec import SOURCE_NAME

__all__ = [
    "ExploreOutcome",
    "ExploreTask",
    "execute_task",
    "run_wave",
    "task_fleet",
]


@dataclasses.dataclass(frozen=True)
class ExploreTask:
    """One execution request: an app, a seed, and compiled scenarios."""

    app: str
    seed: int
    #: Coordinate key (or ``"baseline"`` for the discovery run).
    key: str
    #: Compiled scenarios; empty for the fault-free baseline.
    scenarios: _t.Tuple[FailureScenario, ...] = ()


@dataclasses.dataclass
class ExploreOutcome:
    """Plain-data result of one execution."""

    key: str
    #: Per manifest check: (name, passed, inconclusive).
    verdicts: _t.List[tuple]
    #: Sorted unique causal-tree shape digests across all requests.
    shapes: _t.List[str]
    #: Strict sha256 over timestamped records + verdicts + shapes —
    #: the bit-for-bit replay comparand.
    digest: str
    records: int
    #: Worker failure description; a crashed/raising execution yields
    #: an outcome with this set and everything else empty.
    error: _t.Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _manifest(app: str) -> SeededBugManifest:
    try:
        return SEEDED_BUG_SUITE[app]
    except KeyError:
        raise ExploreError(
            f"unknown seeded-bug app {app!r};"
            f" available: {', '.join(sorted(SEEDED_BUG_SUITE))}"
        ) from None


def _manifest_load(manifest: SeededBugManifest) -> LoadSpec:
    """The closed-loop test load every run of a seeded app drives."""
    return LoadSpec(
        entry=manifest.entry,
        requests=manifest.requests,
        think_time=manifest.think_time,
        source_name=SOURCE_NAME,
    )


def execute_task(task: ExploreTask) -> ExploreOutcome:
    """Run one task in-process and distill its outcome."""
    manifest = _manifest(task.app)
    run = run_faulted(
        manifest.builder().deploy(seed=task.seed),
        list(task.scenarios),
        manifest.checks(),
        load=_manifest_load(manifest),
    )
    store = run.deployment.store
    verdicts = [(result.name, result.passed, result.inconclusive) for result in run.checks]
    shapes = sorted(set(shape_digests_of(store).values()))
    strict = strict_records(store)
    return ExploreOutcome(
        key=task.key,
        verdicts=verdicts,
        shapes=shapes,
        digest=strict_digest(records=strict, verdicts=verdicts, shapes=shapes),
        records=len(strict),
    )


def _run_task(worker_id: int, task: ExploreTask, context: None) -> ExploreOutcome:
    """Fleet entry point (module-level: pickles to forked workers)."""
    return execute_task(task)


def _failed_task(task: ExploreTask, detail: str) -> ExploreOutcome:
    """The fleet's ``on_crash``: a task that raised, or whose worker
    died, is an error outcome — the exploration loop never sees a raise."""
    return ExploreOutcome(
        key=task.key, verdicts=[], shapes=[], digest="", records=0, error=detail
    )


def task_fleet(
    *, workers: _t.Union[int, str] = 1, backend: str = "threads"
) -> Fleet:
    """The fleet that executes exploration tasks; hold it open across
    waves so process workers stay warm."""
    return Fleet(
        ProcessWorkerSpec(target=_run_task, on_crash=_failed_task),
        workers=workers,
        backend=backend,
    )


def run_wave(tasks: _t.Sequence[ExploreTask], fleet: Fleet) -> _t.List[ExploreOutcome]:
    """Execute one wave of tasks on ``fleet``, results in task order.

    The wave is the exploration loop's unit of parallelism: its size is
    fixed by the caller (never derived from the fleet's size), and
    results are consumed in dispatch order, so frontier decisions are
    identical at any parallelism level on either backend.
    """
    results = fleet.run(tasks)
    return [results[position] for position in range(len(tasks))]

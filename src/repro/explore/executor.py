"""Fleet execution of exploration tasks.

Each task is one full simulated run: deploy the seeded app, install
the coordinate's compiled rules, drive the manifest workload, evaluate
the manifest's pattern checks, and distill the outcome into plain
data.  Tasks are plain-data too (app *name* plus scenario-spec dicts),
so the same task object runs on the thread fleet or pickles to a
spawn-isolated process worker — the outcome, including the strict
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
import hashlib
import json
import typing as _t

from repro.agent.rules import fresh_rule_ids
from repro.apps.outages import SEEDED_BUG_SUITE, SeededBugManifest
from repro.campaign.fleet import Fleet, ProcessWorkerSpec
from repro.core.gremlin import Gremlin
from repro.errors import ExploreError
from repro.fuzz.differential import shape_digests_of
from repro.fuzz.spec import SOURCE_NAME, build_scenario
from repro.loadgen import ClosedLoopLoad

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
    #: Scenario-spec dicts (:mod:`repro.fuzz.spec` codec); empty for
    #: the fault-free baseline.
    scenarios: _t.Tuple[dict, ...] = ()


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


def execute_task(task: ExploreTask) -> ExploreOutcome:
    """Run one task in-process and distill its outcome."""
    manifest = _manifest(task.app)
    application = manifest.builder()
    deployment = application.deploy(seed=task.seed)
    source = deployment.add_traffic_source(manifest.entry, name=SOURCE_NAME)
    gremlin = Gremlin(deployment)
    sim = deployment.sim

    scenarios = [build_scenario(spec) for spec in task.scenarios]
    if scenarios:
        # Scoped rule numbering: rules are 1..N per execution, so the
        # digest depends only on the task (see fuzz.differential).
        with fresh_rule_ids():
            rules = gremlin.translator.translate(scenarios)
        gremlin.orchestrator.apply(rules)

    load = ClosedLoopLoad(
        num_requests=manifest.requests, think_time=manifest.think_time
    )
    sim.process(load.driver(source), name=f"explore/{task.key}")
    sim.run()

    store = deployment.store
    verdicts = []
    for check in manifest.checks():
        result = check.run(store)
        verdicts.append((result.name, result.passed, result.inconclusive))
    shapes = sorted(set(shape_digests_of(store).values()))

    strict = [
        (
            record.kind,
            record.src,
            record.dst,
            record.request_id,
            record.status,
            record.error,
            record.fault_applied,
            record.gremlin_generated,
            round(record.injected_delay, 9),
            round(record.timestamp, 9),
            None if record.latency is None else round(record.latency, 9),
        )
        for record in store.all_records()
    ]
    digest = hashlib.sha256(
        json.dumps(
            {"records": strict, "verdicts": verdicts, "shapes": shapes},
            separators=(",", ":"),
            default=str,
        ).encode("utf-8")
    ).hexdigest()
    return ExploreOutcome(
        key=task.key,
        verdicts=verdicts,
        shapes=shapes,
        digest=digest,
        records=len(strict),
    )


def _run_task(worker_id: int, task: ExploreTask, context: None) -> ExploreOutcome:
    """Fleet entry point (module-level: pickles to spawn workers)."""
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

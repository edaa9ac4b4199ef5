"""The exploration loop: discover, prioritize, execute, learn, prune.

:func:`run_explore` is the subsystem's entry point.  One run:

1. **Discover** — execute the app fault-free once (in-process, keeping
   the event store), reconstruct the causal tree of the first test
   request, and enumerate the full coordinate space from it
   (:func:`~repro.explore.coords.enumerate_space`).  The fault-free
   shape digests become the coverage baseline.
2. **Seed the frontier** — FastFI-style per-edge sweeps plus surgical
   single-invocation coordinates, ordered by the
   :class:`~repro.explore.frontier.Frontier` heuristic (or by a seeded
   shuffle for the ``random`` baseline strategy).
3. **Execute in waves** — fixed-size waves go through one campaign
   fleet held open for the whole run (threads, or spawn-isolated
   processes that stay warm from wave to wave); outcomes are consumed
   in dispatch order, so the loop's decisions are identical at any
   worker count on either backend.
4. **Learn** — new trace shapes boost their neighborhood, no-effect
   executions defer their edge, and a conclusively failed manifest
   check records the planted bug *and* prunes every pending candidate
   masked by the confirmed path.

The loop stops when the budget is spent, the frontier is empty, or —
with ``stop_when_found`` — every planted bug has surfaced.
"""

from __future__ import annotations

import dataclasses
import random as _random
import typing as _t

from repro.apps.outages import SEEDED_BUG_SUITE, SeededBugManifest
from repro.errors import ExploreError
from repro.explore.compiler import scenario_specs
from repro.explore.coords import (
    Coordinate,
    ExplorationSpace,
    enumerate_space,
    fault_primitives,
)
from repro.explore.executor import ExploreTask, run_wave, task_fleet
from repro.explore.frontier import Frontier
from repro.explore.report import BugFinding, CoverageReport
from repro.fuzz.differential import shape_digests_of
from repro.fuzz.spec import SOURCE_NAME
from repro.loadgen import ClosedLoopLoad
from repro.observability.cascade.graph import discover_graph
from repro.observability.cascade.whatif import order_candidates
from repro.observability.trace import reconstruct
from repro.tracing.context import TEST_ID_PREFIX

__all__ = ["ExploreResult", "STRATEGIES", "discover_space", "run_explore"]

STRATEGIES = ("prioritized", "random", "whatif")

#: Coordinates dispatched per fleet wave.  Fixed (never derived from
#: the worker count) so exploration order is workers-independent.
WAVE_SIZE = 8


@dataclasses.dataclass
class ExploreResult:
    """Everything one exploration run produced."""

    app: str
    strategy: str
    seed: int
    budget: int
    space: ExplorationSpace
    #: (coordinate key, outcome digest) per execution, dispatch order.
    executed: _t.List[_t.Tuple[str, str]]
    findings: _t.List[BugFinding]
    #: Keys pruned by masking, in pruning order.
    pruned: _t.List[str]
    #: All distinct shape digests observed (baseline + fault-provoked).
    shapes_seen: _t.Set[str]
    #: Executions that errored: (key, error detail).
    errors: _t.List[_t.Tuple[str, str]]
    report: CoverageReport

    @property
    def all_bugs_found(self) -> bool:
        return self.report.all_bugs_found

    @property
    def executions_to_all_bugs(self) -> _t.Optional[int]:
        return self.report.executions_to_all_bugs


def _manifest(app: str) -> SeededBugManifest:
    try:
        return SEEDED_BUG_SUITE[app]
    except KeyError:
        raise ExploreError(
            f"unknown seeded-bug app {app!r};"
            f" available: {', '.join(sorted(SEEDED_BUG_SUITE))}"
        ) from None


def discover_space(
    app: str,
    *,
    seed: int = 0,
    matcher_strategy: str = "table",
    scheduler: _t.Optional[str] = None,
) -> ExplorationSpace:
    """Run the app fault-free once and enumerate its coordinate space.

    Runs in-process (unlike fault executions, which go through the
    fleet) because enumeration needs the live event store to
    reconstruct the representative causal tree.
    """
    manifest = _manifest(app)
    application = manifest.builder()
    deployment = application.deploy(
        seed=seed, matcher_strategy=matcher_strategy, scheduler=scheduler
    )
    source = deployment.add_traffic_source(manifest.entry, name=SOURCE_NAME)
    load = ClosedLoopLoad(
        num_requests=manifest.requests, think_time=manifest.think_time
    )
    deployment.sim.process(load.driver(source), name="explore/discovery")
    deployment.sim.run()
    deployment.pipeline.flush()

    store = deployment.store
    trace = reconstruct(store, f"{TEST_ID_PREFIX}1")
    multi_instance = {
        name
        for name, instances in deployment.instances.items()
        if len(instances) > 1
    }
    # Fold *every* discovery trace (not just the representative one)
    # into the weighted dependency graph: call counts across the whole
    # fault-free workload are what the whatif simulation weighs.
    traces = [trace] + [
        reconstruct(store, f"{TEST_ID_PREFIX}{i}")
        for i in range(2, manifest.requests + 1)
    ]
    space = enumerate_space(
        manifest,
        trace,
        seed=seed,
        baseline_shapes=shape_digests_of(store).values(),
        multi_instance_srcs=multi_instance,
    )
    space.graph = discover_graph(traces)
    return space


def _random_order(space: ExplorationSpace, seed: int) -> _t.List[Coordinate]:
    """The random baseline's schedule: same universe, seeded shuffle,
    no scoring, no feedback, no pruning."""
    order = space.coordinates
    _random.Random(seed).shuffle(order)
    return order


def _whatif_order(
    space: ExplorationSpace, manifest: SeededBugManifest
) -> _t.List[Coordinate]:
    """The whatif strategy's schedule: every candidate's fault is
    simulated over the discovered dependency graph and the schedule is
    the resulting static ranking — predicted blast first, no online
    feedback (contrast with the prioritized frontier, which learns)."""
    if space.graph is None:
        raise ExploreError(
            "whatif strategy needs the discovery run's dependency graph"
        )
    intervals = {
        name: params.get("interval", 0.0)
        for name, params in fault_primitives(manifest)
    }
    return order_candidates(
        space.coordinates,
        space.graph,
        intervals=intervals,
        requests=manifest.requests,
    )


def run_explore(
    app: str,
    *,
    budget: int = 150,
    seed: int = 0,
    strategy: str = "prioritized",
    workers: _t.Union[int, str] = 1,
    backend: str = "threads",
    matcher_strategy: str = "table",
    scheduler: _t.Optional[str] = None,
    stop_when_found: bool = False,
) -> ExploreResult:
    """Explore one seeded app's fault space within an execution budget.

    The fault-free discovery run is not counted against ``budget``;
    every fault execution is.  ``stop_when_found`` ends the run early
    once all planted bugs have surfaced (benchmarks measuring
    executions-to-all-bugs use it; coverage-oriented runs leave it off
    to keep mapping the space).
    """
    if strategy not in STRATEGIES:
        raise ExploreError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if budget < 1:
        raise ExploreError(f"budget must be >= 1, got {budget}")
    manifest = _manifest(app)
    # Rejects a bad workers/backend before the discovery run is paid
    # for; no worker starts until the first wave.
    fleet = task_fleet(workers=workers, backend=backend)
    space = discover_space(
        app, seed=seed, matcher_strategy=matcher_strategy, scheduler=scheduler
    )

    frontier = Frontier(space) if strategy == "prioritized" else None
    if frontier is not None:
        schedule = None
    elif strategy == "whatif":
        schedule = _whatif_order(space, manifest)
    else:
        schedule = _random_order(space, seed)

    known_shapes = set(space.baseline_shapes)
    executed: _t.List[_t.Tuple[str, str]] = []
    findings: _t.List[BugFinding] = []
    errors: _t.List[_t.Tuple[str, str]] = []
    found: _t.Set[str] = set()
    planted = set(manifest.bug_ids())
    executions_to_all: _t.Optional[int] = None

    def next_wave(size: int) -> _t.List[Coordinate]:
        if frontier is not None:
            return frontier.pop_wave(size)
        wave = schedule[:size]
        del schedule[:size]
        return wave

    with fleet:
        while len(executed) < budget:
            if stop_when_found and planted and found >= planted:
                break
            wave = next_wave(min(WAVE_SIZE, budget - len(executed)))
            if not wave:
                break
            tasks = [
                ExploreTask(
                    app=app,
                    seed=seed,
                    key=coordinate.key(),
                    scenarios=tuple(scenario_specs(coordinate, manifest)),
                    matcher_strategy=matcher_strategy,
                    scheduler=scheduler,
                )
                for coordinate in wave
            ]
            outcomes = run_wave(tasks, fleet)
            for coordinate, outcome in zip(wave, outcomes):
                executed.append((outcome.key, outcome.digest))
                if not outcome.ok:
                    errors.append((outcome.key, outcome.error or "unknown"))
                    continue
                new_bugs = sorted(manifest.bugs_found(outcome.verdicts) - found)
                if new_bugs:
                    failed = tuple(
                        name
                        for name, passed, inconclusive in outcome.verdicts
                        if not passed and not inconclusive
                    )
                    for bug_id in new_bugs:
                        found.add(bug_id)
                        findings.append(
                            BugFinding(
                                bug_id=bug_id,
                                coordinate=outcome.key,
                                execution_index=len(executed),
                                failed_checks=failed,
                            )
                        )
                    if planted and found >= planted and executions_to_all is None:
                        executions_to_all = len(executed)
                    if frontier is not None:
                        # Masking: a confirmed failure here already
                        # surfaces anything a deeper fault on this path
                        # could show — drop those candidates.
                        frontier.prune_masked(coordinate)
                fresh = set(outcome.shapes) - known_shapes
                if frontier is not None:
                    if fresh:
                        frontier.boost_neighborhood(coordinate)
                    elif not new_bugs:
                        frontier.defer_edge(coordinate)
                known_shapes.update(fresh)

    pruned = list(frontier.pruned) if frontier is not None else []
    report = CoverageReport(
        app=app,
        strategy=strategy,
        seed=seed,
        budget=budget,
        edges_discovered=len(space.edges),
        coordinates_enumerated=len(space.sweeps) + len(space.singles),
        sweep_coordinates=len(space.sweeps),
        single_coordinates=len(space.singles),
        executed=len(executed),
        pruned=len(pruned),
        errors=len(errors),
        baseline_shapes=len(space.baseline_shapes),
        shapes_seen=len(known_shapes),
        new_shapes=len(known_shapes) - len(space.baseline_shapes),
        bugs_planted=sorted(planted),
        findings=list(findings),
        executions_to_all_bugs=executions_to_all,
    )
    return ExploreResult(
        app=app,
        strategy=strategy,
        seed=seed,
        budget=budget,
        space=space,
        executed=executed,
        findings=findings,
        pruned=pruned,
        shapes_seen=known_shapes,
        errors=errors,
        report=report,
    )

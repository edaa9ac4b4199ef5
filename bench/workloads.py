"""The four workloads: inputs from one seed, timed rounds, output checks.

A workload's *round* is a fixed amount of work (its inputs never change
size; a longer run repeats rounds).  Inside a round every call into the
program's public API is one timed *operation*; every result the program
returns is folded into a digest that holds no wall-clock field, and an
operation fails when the program reports it failed or when its digest
differs from an earlier one under the same key (another round, the
traced pass, or the serial reference run).

Timings are scaled to a nominal host.  This host's speed drifts by
30-40% over minutes (two runs of one seed differed 0.74x-1.42x), which
no statistic inside a run can remove, so a fixed pure-Python loop is
timed between operations and each operation's wall is multiplied by
``NOMINAL_CALIBRATION_MS / the readings around it``.  Measured over ten
seeds: spreads of 15-22% raw, 4-7% scaled.  Raw walls stay in the run
record.
"""

from __future__ import annotations

import functools
import hashlib
import os
import statistics
import time

from repro.apps import build_socialnetwork_app, build_tree_app
from repro.campaign import (
    CampaignRunner,
    RecipeExecutor,
    RecipeOutcome,
    dumps,
    loads,
    plan_campaign,
)
from repro.core.gremlin import Gremlin
from repro.explore import run_explore
from repro.loadgen import ClosedLoopLoad

#: All load comes from the one bench process; the only other processes
#: are the fleet's own workers, never more than there are cores.
FLEET_WORKERS = min(2, os.cpu_count() or 1)

#: Statuses with which the program itself reports a failed operation
#: (``fail`` and ``inconclusive`` are verdicts, not failures).
FAILED_STATUSES = frozenset({"error", "timeout", "skipped"})


#: What the calibration loop takes on the host the benchmark was defined
#: on; scaled timings read as milliseconds on a host of that speed.
NOMINAL_CALIBRATION_MS = 3.5

#: One calibration reading per this many seconds of an operation (2% of
#: its wall), so that long operations get proportionally many readings.
SECONDS_PER_READING = 0.2


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes: the host's speed now.
    Integer arithmetic only, so it never triggers the garbage collector."""
    start = time.perf_counter()
    total = 0
    for value in range(40_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Calibration readings taken between timed pieces of work, and the
    factor that scales each piece to the nominal host."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.before = 0.0

    def measure(self, seconds: float = 1.0) -> float:
        """Take readings in proportion to ``seconds`` of work; returns
        their median."""
        burst = [
            calibrate() for _ in range(max(1, round(seconds / SECONDS_PER_READING)))
        ]
        self.readings += burst
        return statistics.median(burst)

    def begin(self) -> None:
        """Read the speed just before a piece of work starts."""
        self.before = self.measure()

    def scale(self, wall: float) -> float:
        """Read the speed just after ``wall`` seconds of work; returns the
        factor for that work, from the readings on either side of it."""
        after = self.measure(wall)
        factor = NOMINAL_CALIBRATION_MS / ((self.before + after) / 2)
        self.before = after
        return factor


def digest(*parts) -> str:
    """Short stable hash of plain values (floats repr exactly)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def verdict_digest(outcome: RecipeOutcome) -> str:
    """Everything a recipe's verdict consists of, and no wall-clock field."""
    return digest(
        outcome.name,
        outcome.seed,
        outcome.status,
        [(c.name, c.passed, c.inconclusive) for c in outcome.checks],
        tuple(outcome.window),
        list(outcome.latencies),
        list(outcome.attempts),
        outcome.classification,
    )


def status_problem(outcome: RecipeOutcome):
    if outcome.status in FAILED_STATUSES:
        return f"status {outcome.status}: {outcome.error}"
    return None


class Workload:
    """Shared bookkeeping; subclasses give ``build`` and ``round``."""

    name = ""
    #: The search-quality count; only ``explore_seeded`` has one.
    executions_to_all_bugs = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.host = HostSpeed()
        #: Scaled wall of every operation, and the raw walls.
        self.op_s: list[float] = []
        self.raw_op_s: list[float] = []
        #: Scaled operation time of every round.
        self.round_s: list[float] = []
        self.units = 0
        self.unit_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def build(self) -> None:
        """Generate the inputs from the seed (timed into ``setup_s``)."""
        raise NotImplementedError

    def round(self) -> None:
        """Run the fixed unit of work once."""
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that need extra runs, outside the timed region."""

    def timed_round(self) -> float:
        """One round between calibration readings; returns its raw wall."""
        done = len(self.op_s)
        self.host.begin()
        start = time.perf_counter()
        self.round()
        wall = time.perf_counter() - start
        self.round_s.append(sum(self.op_s[done:]))
        return wall

    def timed(self, wall: float, units: int = 1, unit_wall: float | None = None) -> None:
        """Record one operation's wall, scaled to the nominal host."""
        factor = self.host.scale(wall)
        self.raw_op_s.append(wall)
        self.op_s.append(wall * factor)
        self.units += units
        self.unit_s += (wall if unit_wall is None else unit_wall) * factor

    def record(self, key: str, value: str, problem: str | None = None) -> None:
        """Count one checked result; it fails on ``problem`` or when
        ``value`` differs from the digest first seen under ``key``."""
        self.attempted += 1
        expected = self.digests.setdefault(key, value)
        if problem is None and expected != value:
            problem = f"digest {value} differs from earlier {expected}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{self.name}/{key}: {problem}")

    def folded_digest(self) -> str:
        return digest(sorted(self.digests.items()))


class SnVerdict(Workload):
    """27 socialnetwork recipes, each run serially on a fresh deployment.

    Operation: one ``RecipeExecutor.execute``.  Unit: recipes, over the
    summed execute time.
    """

    name = "sn_verdict"

    def build(self) -> None:
        plan = plan_campaign(build_socialnetwork_app, seed=self.seed)
        # Every third entry of the priority-ordered plan: 27 recipes,
        # nine each of overload, hang and degrade.
        self.entries = plan.entries[::3]
        self.executor = RecipeExecutor(build_socialnetwork_app)

    def round(self) -> None:
        for entry in self.entries:
            start = time.perf_counter()
            outcome = self.executor.execute(entry)
            self.timed(time.perf_counter() - start)
            self.record(entry.name, verdict_digest(outcome), status_problem(outcome))


class FleetCampaign(Workload):
    """The 42-recipe tree-app campaign on a cold two-worker process fleet.

    Operation: one whole campaign, run start to scorecard, dump, load and
    report rendered.  Unit: jobs including flake reruns, over that time.
    """

    name = "fleet_campaign"

    RERUNS = 2

    def build(self) -> None:
        # A partial of a module-level function pickles by reference into
        # the spawn-started workers.
        self.factory = functools.partial(build_tree_app, 3)
        self.plan = plan_campaign(self.factory, seed=self.seed, requests=2)

    def round(self) -> None:
        start = time.perf_counter()
        result = CampaignRunner(
            self.factory,
            backend="processes",
            workers=FLEET_WORKERS,
            rerun_failures=self.RERUNS,
        ).run(self.plan)
        rendered = self.render(result)
        reloaded = loads(dumps(result))
        wall = time.perf_counter() - start
        jobs = sum(max(1, len(outcome.attempts)) for outcome in result.outcomes)
        self.timed(wall, units=jobs)
        self.check_campaign(result, rendered)
        # A dump read back must hold the same outcomes.
        self.check_campaign(reloaded)

    @staticmethod
    def render(result) -> tuple[str, str, str]:
        report = result.resilience_report()
        return result.scorecard().text(), report.to_json(), report.to_html()

    def check_campaign(self, result, rendered=None) -> None:
        for outcome in result.outcomes:
            self.record(outcome.name, verdict_digest(outcome), status_problem(outcome))
        if rendered is not None:
            # Scorecard text and report JSON/HTML are byte-deterministic.
            self.record("rendered", digest(*rendered))

    def verify(self) -> None:
        # The determinism contract: the fleet changes wall time, nothing
        # else, so a serial in-process run must give the same digests.
        reference = CampaignRunner(
            self.factory, workers=1, rerun_failures=self.RERUNS
        ).run(self.plan)
        self.check_campaign(reference, self.render(reference))


class ChainedSession(Workload):
    """The paper's imperative style: 60 inject/check/clear stages on one
    long-lived socialnetwork deployment whose log store keeps growing.

    Operation: one stage.  Unit: check evaluations, over the summed
    check-phase time.
    """

    name = "chained_session"

    STAGES = 60
    REQUESTS = 5

    def build(self) -> None:
        self.plan = plan_campaign(build_socialnetwork_app, seed=self.seed)
        self.checks = [
            check for entry in self.plan.entries for check in entry.recipe.checks
        ]
        self.deploy()  # timed into setup_s; every session deploys afresh

    def deploy(self):
        load = self.plan.entries[0].load
        deployment = build_socialnetwork_app().deploy(seed=self.seed)
        return deployment, deployment.add_traffic_source(
            load.entry, name=load.source_name
        )

    def round(self) -> None:
        # Local to the round: a finished session's ~20k records must not
        # stay on the heap while other workloads' rounds are timed.
        deployment, source = self.deploy()
        gremlin = Gremlin(deployment)
        sim = deployment.sim
        entries = self.plan.entries
        for stage in range(self.STAGES):
            entry = entries[2 * stage % len(entries)]
            start = time.perf_counter()
            since = sim.now
            gremlin.inject(*entry.recipe.scenarios)
            load = ClosedLoopLoad(
                num_requests=self.REQUESTS, think_time=entry.load.think_time
            )
            sim.process(load.driver(source), name=f"load/{stage}")
            sim.run()
            sim.run(until=sim.now + entry.settle)
            checking = time.perf_counter()
            verdicts = []
            for check in self.checks:
                # Windowed to this stage, then over the whole history.
                for result in (gremlin.check(check, since=since), gremlin.check(check)):
                    verdicts.append((result.name, result.passed, result.inconclusive))
            checked = time.perf_counter()
            gremlin.clear()
            self.timed(
                time.perf_counter() - start,
                units=len(verdicts),
                unit_wall=checked - checking,
            )
            self.record(
                f"stage-{stage:02d}",
                digest(entry.name, verdicts, since, sim.now, list(load.result.latencies)),
            )


class ExploreSeeded(Workload):
    """Prioritized exploration of the three seeded-bug apps.

    Operation: one ``run_explore``.  Unit: fault executions, over the
    summed ``run_explore`` time.
    """

    name = "explore_seeded"

    APPS = ("deepfanout", "retrystorm", "stuckbreaker")
    BUDGET = 150

    def build(self) -> None:
        """Nothing to generate: the seed itself is the input."""

    def round(self) -> None:
        to_all_bugs = 0
        for app in self.APPS:
            start = time.perf_counter()
            result = run_explore(
                app,
                budget=self.BUDGET,
                seed=self.seed,
                strategy="prioritized",
                workers=1,
            )
            self.timed(time.perf_counter() - start, units=len(result.executed))
            problem = None
            if result.errors:
                problem = f"{len(result.errors)} executions errored: {result.errors[0]}"
            elif not result.all_bugs_found:
                problem = "planted bugs missed"
            else:
                to_all_bugs += result.executions_to_all_bugs
            findings = [
                (f.bug_id, f.coordinate, f.execution_index) for f in result.findings
            ]
            self.record(app, digest(result.executed, findings), problem)
        self.executions_to_all_bugs = to_all_bugs  # summed over the apps


WORKLOADS = {
    cls.name: cls for cls in (SnVerdict, FleetCampaign, ChainedSession, ExploreSeeded)
}

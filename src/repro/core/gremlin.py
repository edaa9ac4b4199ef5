"""The Gremlin facade: control plane wired to one deployment.

Ties together the Recipe Translator, Failure Orchestrator and
Assertion Checker (paper Figure 2) and exposes both interaction
styles:

* **declarative** — :meth:`Gremlin.run_recipe` stages the scenarios,
  drives the load, waits for logs to land, evaluates every check, and
  cleans up; returns a :class:`~repro.core.recipe.RecipeResult`.
* **imperative** — :meth:`inject` / :meth:`check` / :meth:`clear` let
  the operator write the paper's *chained failures* (Section 4.2):
  inject an Overload, test for bounded retries, and only then escalate
  to a Crash and test the circuit breaker.

The campaign executor, exploration, the fuzzer and the CLI run the same
pipeline through :func:`run_faulted` and keep only their bookkeeping.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
import typing as _t
import weakref

from repro.agent.rules import FaultRule, fresh_rule_ids
from repro.core.orchestrator import FailureOrchestrator, InstallationReport
from repro.core.patterns import CheckResult, PatternCheck
from repro.core.queries import RList, get_replies, get_requests
from repro.core.recipe import LoadFactory, Recipe, RecipeResult
from repro.core.scenarios import FailureScenario
from repro.core.translator import RecipeTranslator
from repro.errors import CampaignTimeoutError
from repro.loadgen.workload import ClosedLoopLoad, LoadResult
from repro.logstore.record import ObservationKind
from repro.logstore.store import EventStore
from repro.microservice.app import Deployment
from repro.observability.trace import shape_digests

__all__ = [
    "FaultedRun", "Gremlin", "LoadSpec", "SLICE_VIRTUAL",
    "run_faulted", "shape_digests_of", "strict_digest", "strict_records",
]

#: Virtual seconds a deadline-checked drain advances between two looks
#: at the wall clock.
SLICE_VIRTUAL = 60.0

#: Windows (``since`` values) a standing check keeps state for: the
#: current stage and the whole history, in the paper's chained mode.
_WINDOWS_PER_CHECK = 2


@dataclasses.dataclass(frozen=True)
class LoadSpec:
    """The closed-loop test load of a run: a traffic source named
    ``source_name`` fronting ``entry``, issuing ``requests`` requests."""

    entry: str
    requests: int = 20
    think_time: float = 0.05
    uri: str = "/"
    source_name: str = "user"


@dataclasses.dataclass
class FaultedRun:
    """Everything one :func:`run_faulted` call produced."""

    deployment: Deployment
    installation: InstallationReport
    #: The closed-loop load's samples; None without a :class:`LoadSpec`.
    load: _t.Optional[LoadResult]
    #: Virtual time span [start, end] the checks were scoped to.
    window: tuple[float, float]
    checks: list[CheckResult]
    #: Wall-clock seconds: translate + install, and check evaluation.
    orchestration_time: float
    assertion_time: float


class Gremlin:
    """Control plane bound to a running deployment."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self.translator = RecipeTranslator(deployment.graph)
        self.orchestrator = FailureOrchestrator(deployment.agents)
        #: id(check) -> (weak reference to it, {since: its state dict}).
        #: An entry goes when its check is collected.
        self._standing: dict[int, tuple[weakref.ref, dict]] = {}

    @property
    def sim(self):
        """The deployment's simulator."""
        return self.deployment.sim

    @property
    def store(self):
        """The deployment's centralized event store."""
        return self.deployment.store

    # -- imperative API ---------------------------------------------------------

    def inject(
        self, *scenarios: FailureScenario
    ) -> InstallationReport:
        """Translate scenarios and program every relevant agent."""
        rules = self.translator.translate(list(scenarios))
        return self.orchestrator.apply(rules)

    def clear(self) -> None:
        """Remove all injected faults from the data plane."""
        self.orchestrator.clear_all()

    def check(
        self,
        pattern_check: PatternCheck,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
    ) -> CheckResult:
        """Evaluate one pattern check against the current logs.

        An open-ended check (``until=None``) is a standing check: the
        facade keeps the ``state`` dict its ``run`` folds into for each
        check object and ``since``, so a log that grew between two calls
        is read only for what it gained (plus the requests that were
        still pending).  It keeps the last two windows of each live
        check.  The result is ``pattern_check.run(store, since)``'s,
        field for field.
        """
        if until is not None:
            return pattern_check.run(self.store, since=since, until=until)
        key = id(pattern_check)
        entry = self._standing.get(key)
        if entry is None:
            entry = self._standing[key] = (
                weakref.ref(pattern_check, functools.partial(_forget, weakref.ref(self), key)),
                {},
            )
        windows = entry[1]
        state = windows.pop(since, None) or {}
        result = pattern_check.run(self.store, since, None, state)
        windows[since] = state
        if len(windows) > _WINDOWS_PER_CHECK:
            del windows[next(iter(windows))]
        return result

    def get_requests(self, src: str, dst: str, id_pattern: str = "*", **kwargs) -> RList:
        """Table 3's ``GetRequests`` bound to this deployment's store."""
        return get_requests(self.store, src, dst, id_pattern, **kwargs)

    def get_replies(self, src: str, dst: str, id_pattern: str = "*", **kwargs) -> RList:
        """Table 3's ``GetReplies`` bound to this deployment's store."""
        return get_replies(self.store, src, dst, id_pattern, **kwargs)

    # -- declarative API ------------------------------------------------------------

    def run_recipe(self, recipe: Recipe) -> RecipeResult:
        """Execute a full recipe: inject -> load -> settle -> check -> clean.

        Wall-clock timing: ``orchestration_time`` covers translating
        the scenarios and programming the agents; ``assertion_time``
        covers evaluating every check.  Virtual time: the failure
        window spans from injection until the load (plus ``settle``)
        has run, and checks are scoped to that window so repeated
        recipes against one deployment do not see each other's traffic.
        """
        run = run_faulted(
            self.deployment,
            recipe.scenarios,
            recipe.checks,
            extra_load=recipe.load,
            settle=recipe.settle,
            gremlin=self,
        )
        return RecipeResult(
            recipe=recipe,
            checks=run.checks,
            installed=run.installation.installed,
            orchestration_time=run.orchestration_time,
            assertion_time=run.assertion_time,
            window=run.window,
        )

    def run_recipes(
        self, recipes: _t.Sequence[Recipe], settle_between: float = 0.0
    ) -> list[RecipeResult]:
        """Run a suite of recipes back to back.

        ``settle_between`` adds idle virtual time between recipes so
        client-side state (breaker windows, backoffs) relaxes before
        the next experiment — the hygiene a real test campaign needs.
        """
        results = []
        for index, recipe in enumerate(recipes):
            if index > 0 and settle_between > 0:
                self.sim.run(until=self.sim.now + settle_between)
            results.append(self.run_recipe(recipe))
        return results

    @staticmethod
    def suite_report(results: _t.Sequence[RecipeResult]) -> str:
        """Multi-recipe summary: one line per recipe plus totals."""
        lines = []
        passed = 0
        for result in results:
            mark = "PASS" if result.passed else "FAIL"
            if result.passed:
                passed += 1
            lines.append(
                f"  [{mark}] {result.recipe.name}"
                f" (orch {result.orchestration_time * 1e3:.2f} ms,"
                f" assert {result.assertion_time * 1e3:.2f} ms,"
                f" {len(result.checks)} checks)"
            )
        lines.append(f"  {passed}/{len(results)} recipes passed")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Gremlin deployment={self.deployment.application.name!r}>"


def _forget(gremlin: weakref.ref, key: int, _: weakref.ref) -> None:
    """Drop the state of a collected check.  The facade is reached
    weakly: a strong reference would make it, its saved states and the
    records they hold a cycle that only the collector frees."""
    owner = gremlin()
    if owner is not None:
        owner._standing.pop(key, None)


def run_faulted(
    deployment: Deployment,
    scenarios: _t.Sequence[FailureScenario] = (),
    checks: _t.Sequence[PatternCheck] = (),
    *,
    load: _t.Optional[LoadSpec] = None,
    extra_load: _t.Optional[LoadFactory] = None,
    settle: float = 0.0,
    deadline: _t.Optional[float] = None,
    gremlin: _t.Optional[Gremlin] = None,
    rule_transform: _t.Optional[_t.Callable[[list[FaultRule]], list[FaultRule]]] = None,
) -> FaultedRun:
    """One faulted run on ``deployment``, start to verdict.

    Attach the ``load`` traffic source; install the scenarios' rules
    under scoped rule numbering (``rule_transform`` may edit them
    first); start the closed-loop driver and ``extra_load``; drain;
    idle ``settle``; drain until the log pipeline has landed; evaluate
    ``checks`` on the store, scoped to the window; clear.

    ``deadline=None`` drains to idle.  A ``time.monotonic()`` deadline
    (``inf`` for none) drains in :data:`SLICE_VIRTUAL` virtual slices
    and raises :class:`~repro.errors.CampaignTimeoutError` at the first
    boundary past it; a slice leaves the clock on its boundary, so the
    window closes there.  ``gremlin`` reuses the facade's control plane;
    otherwise one is built once the source's agent exists.
    """
    source = None
    if load is not None:
        source = deployment.add_traffic_source(load.entry, name=load.source_name)
    if gremlin is None:
        gremlin = Gremlin(deployment)
    sim = deployment.sim

    window_start = sim.now
    orch_start = time.perf_counter()
    # Scoped rule numbering: ids (and the Rule#N strings in synthesized
    # replies and attributions) depend only on this run's inputs.
    with fresh_rule_ids():
        rules = gremlin.translator.translate(list(scenarios)) if scenarios else []
        if rule_transform is not None:
            rules = rule_transform(list(rules))
        installation = gremlin.orchestrator.apply(rules)
    orchestration_time = time.perf_counter() - orch_start

    driver = None
    if load is not None:
        driver = ClosedLoopLoad(
            num_requests=load.requests, think_time=load.think_time, uri=load.uri
        )
        sim.process(driver.driver(source), name="load")
    if extra_load is not None:
        sim.process(extra_load(deployment), name="extra-load")
    if driver is not None or extra_load is not None:
        _drain(sim, deadline)
    if settle > 0:
        sim.run(until=sim.now + settle)
    # Let shipped logs land before querying (logstash drain).
    if not deployment.pipeline.drained().triggered:
        _drain(sim, deadline)
    window_end = sim.now

    assert_start = time.perf_counter()
    store = deployment.store
    results = [check.run(store, since=window_start, until=window_end) for check in checks]
    assertion_time = time.perf_counter() - assert_start

    gremlin.clear()
    return FaultedRun(
        deployment=deployment,
        installation=installation,
        load=driver.result if driver is not None else None,
        window=(window_start, window_end),
        checks=results,
        orchestration_time=orchestration_time,
        assertion_time=assertion_time,
    )


def _drain(sim, deadline: _t.Optional[float]) -> None:
    """Run until the event queue drains: straight to idle, or in
    :data:`SLICE_VIRTUAL` slices checking ``deadline`` before each.

    A slice that holds no event would only move the clock to its end,
    so the boundary steps past it by the same float additions and the
    clock lands on the boundary it always did; only slices that hold an
    event cost a ``run`` and a look at the wall clock.
    """
    if deadline is None:
        sim.run()
        return
    until = sim.now
    while True:
        next_event = sim.peek()
        if next_event == float("inf"):
            return
        until += SLICE_VIRTUAL
        while next_event > until:
            until += SLICE_VIRTUAL
        if time.monotonic() > deadline:
            raise CampaignTimeoutError()
        sim.run(until=until)


def strict_records(store: EventStore) -> list[tuple]:
    """Every record of ``store``, in store order, as the tuple the strict
    digests hash: (kind, src, dst, request_id, status, error,
    fault_applied, gremlin_generated, injected_delay, timestamp,
    latency), floats rounded to 9 places."""
    return [
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


def shape_digests_of(store: EventStore) -> dict[str, str]:
    """Per-request causal-tree shape digests for a whole store.

    One walk over the records groups each request's spans as
    :func:`~repro.observability.trace.shape_digests` takes them, by
    :func:`~repro.observability.spans.assemble_spans`' rules: a record
    without a span ID or request ID joins no span (a request ID whose
    records are all untraced digests as an empty tree); a span's first
    record gives its edge and parent; a later request record for it is
    a duplicate and ignored; a reply sets its outcome.  Equal to
    ``trace_shape_digest(reconstruct_from_records(...))`` per request,
    without building a span or a tree.
    """
    requests: dict[str, dict[str, list]] = {}
    for record in store.all_records():
        request_id = record.request_id
        if request_id is None:
            continue
        spans = requests.get(request_id)
        if spans is None:
            spans = requests[request_id] = {}
        span_id = record.span_id
        if span_id is None:
            continue
        span = spans.get(span_id)
        if span is None:
            spans[span_id] = [
                record.src,
                record.dst,
                record.status,
                record.error,
                record.fault_applied,
                record.parent_span,
            ]
        elif record.kind == ObservationKind.REPLY:
            span[2:5] = record.status, record.error, record.fault_applied
    return shape_digests(requests)


def strict_digest(**parts: _t.Any) -> str:
    """sha256 over the compact JSON of ``parts``, in keyword order."""
    return hashlib.sha256(
        json.dumps(parts, separators=(",", ":"), default=str).encode("utf-8")
    ).hexdigest()

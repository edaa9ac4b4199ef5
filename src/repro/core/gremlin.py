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
"""

from __future__ import annotations

import time
import typing as _t

from repro.core.orchestrator import FailureOrchestrator, InstallationReport
from repro.core.patterns import CheckResult, PatternCheck
from repro.core.queries import QueryCache, RList, get_replies, get_requests
from repro.core.recipe import Recipe, RecipeResult
from repro.core.scenarios import FailureScenario
from repro.core.translator import RecipeTranslator
from repro.microservice.app import Deployment

__all__ = ["Gremlin"]


class Gremlin:
    """Control plane bound to a running deployment."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self.translator = RecipeTranslator(deployment.graph)
        self.orchestrator = FailureOrchestrator(deployment.agents)

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
        """Evaluate one pattern check against the current logs."""
        return pattern_check.run(self.store, since=since, until=until)

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
        sim = self.sim
        window_start = sim.now

        orch_start = time.perf_counter()
        rules = self.translator.translate(list(recipe.scenarios))
        report = self.orchestrator.apply(rules)
        orchestration_time = time.perf_counter() - orch_start

        if recipe.load is not None:
            sim.process(recipe.load(self.deployment), name=f"load/{recipe.name}")
            sim.run()
        if recipe.settle > 0:
            sim.run(until=sim.now + recipe.settle)
        # Let shipped logs land before querying (logstash drain).
        drained = self.deployment.pipeline.drained()
        if not drained.triggered:
            sim.run()
        window_end = sim.now

        assert_start = time.perf_counter()
        # One scan per distinct scope: the suite's checks are grouped by
        # the (src, dst, kind) slices they declare, each slice is
        # fetched once through a shared cache, and every assertion step
        # evaluates against the shared RList.
        cache = QueryCache(self.store)
        for check in recipe.checks:
            for scope in check.scopes(since=window_start, until=window_end):
                cache.search(scope)
        outcomes = [
            check.run(cache, since=window_start, until=window_end)
            for check in recipe.checks
        ]
        assertion_time = time.perf_counter() - assert_start

        self.orchestrator.clear_all()
        return RecipeResult(
            recipe=recipe,
            checks=outcomes,
            installed=report.installed,
            orchestration_time=orchestration_time,
            assertion_time=assertion_time,
            window=(window_start, window_end),
            distinct_scopes=cache.misses,
            shared_fetches=cache.hits,
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

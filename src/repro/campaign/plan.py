"""Campaign planning: recipes in, a deduplicated and seeded plan out.

The paper's title promises *systematic* resilience testing; Section 9
sketches generating recipes straight from the application graph.  The
planner turns that sketch into an executable artifact: it expands
:func:`~repro.core.autogen.generate_recipes` over a deployment factory's
logical graph, merges in operator-supplied recipes, drops duplicates
(two recipes staging the same scenarios and asserting the same checks
test nothing new), orders what remains by how much a failure there
would hurt, and stamps every entry with a deterministic per-recipe
seed — the property that makes a whole campaign reproducible from a
single integer.

A :class:`CampaignPlan` is pure data: nothing is deployed or executed
until a :class:`~repro.campaign.runner.CampaignRunner` takes it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

from repro.core.autogen import EdgeAnnotation, generate_recipes
from repro.core.gremlin import LoadSpec
from repro.core.recipe import Recipe
from repro.errors import CampaignError
from repro.microservice.app import Application

__all__ = [
    "LoadSpec",
    "PlannedRecipe",
    "CampaignPlan",
    "plan_campaign",
    "derive_seed",
    "recipe_signature",
    "scenario_target",
]

#: Zero-argument callable producing a fresh :class:`Application`; every
#: worker materializes its own deployments from it, which is what keeps
#: parallel recipe executions fully isolated from each other.
DeploymentFactory = _t.Callable[[], Application]

#: Execution order among patterns: hard-failure probes first (a missing
#: circuit breaker is the worst finding), slow-failure probes after.
PATTERN_RANK = {
    "crash": 0,
    "partition": 1,
    "overload": 2,
    "retry_storm": 3,
    "resource_exhaustion": 4,
    "hang": 5,
    "gray_failure": 6,
    "degrade": 7,
    "misconfiguration": 8,
    # Controls run last: they calibrate the checks, not the service.
    "noop_control": 98,
}


def derive_seed(campaign_seed: int, recipe_name: str, attempt: int = 0) -> int:
    """Deterministic per-recipe (and per-rerun-attempt) seed.

    Hash-derived rather than sequential so inserting or reordering plan
    entries never perturbs the seed — and therefore the outcome — of
    any other recipe.
    """
    text = f"{campaign_seed}/{recipe_name}/{attempt}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def recipe_signature(recipe: Recipe) -> tuple:
    """Order-insensitive identity of what a recipe stages and asserts."""
    scenarios = tuple(sorted(scenario.describe() for scenario in recipe.scenarios))
    checks = tuple(sorted(check.name for check in recipe.checks))
    return (scenarios, checks)


def scenario_target(scenario: _t.Any) -> str:
    """The faulted service a scenario aims at, best effort.

    Service-scoped scenarios (Crash, Hang, Overload, Degrade,
    FakeSuccess) expose ``service``; edge primitives expose ``dst``;
    Disconnect exposes ``service2``.  Cut-style scenarios (partition)
    have no single target and report ``"*"``.
    """
    for attr in ("service", "dst", "service2"):
        value = getattr(scenario, attr, None)
        if isinstance(value, str):
            return value
    return "*"


@dataclasses.dataclass
class PlannedRecipe:
    """One executable unit of a campaign."""

    #: Stable position in the plan; results are reported in this order
    #: no matter which worker ran the recipe when.
    index: int
    recipe: Recipe
    #: Deployment seed for this recipe's isolated deployment.
    seed: int
    #: Scenario kind of the primary (first) staged scenario.
    pattern: str
    #: Service the primary scenario faults.
    service: str
    load: LoadSpec
    #: Virtual seconds to idle after the load, letting retries/backoffs
    #: and the log pipeline settle before the failure window closes.
    settle: float = 5.0

    @property
    def name(self) -> str:
        """The underlying recipe's name (unique within a plan)."""
        return self.recipe.name


@dataclasses.dataclass
class CampaignPlan:
    """An ordered, deduplicated, seeded set of recipes to execute."""

    name: str
    app: str
    seed: int
    entries: list[PlannedRecipe]
    #: Recipes dropped because another entry had the same signature.
    deduplicated: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> _t.Iterator[PlannedRecipe]:
        return iter(self.entries)

    def limit(self, max_recipes: int) -> "CampaignPlan":
        """A truncated copy keeping the first ``max_recipes`` entries
        (they are already priority-ordered) — the smoke-test fast path."""
        if max_recipes < 1:
            raise CampaignError(f"max_recipes must be >= 1, got {max_recipes}")
        return dataclasses.replace(self, entries=self.entries[:max_recipes])

    def summary(self) -> str:
        """One-paragraph description for CLI output and logs."""
        by_pattern: dict[str, int] = {}
        for entry in self.entries:
            by_pattern[entry.pattern] = by_pattern.get(entry.pattern, 0) + 1
        patterns = ", ".join(
            f"{pattern}={count}"
            for pattern, count in sorted(
                by_pattern.items(), key=lambda kv: (PATTERN_RANK.get(kv[0], 99), kv[0])
            )
        )
        return (
            f"campaign {self.name!r} on {self.app!r}: {len(self.entries)} recipes"
            f" ({patterns}), seed={self.seed}, {self.deduplicated} duplicates dropped"
        )


def plan_campaign(
    factory: DeploymentFactory,
    *,
    name: _t.Optional[str] = None,
    seed: int = 0,
    annotations: _t.Optional[dict[str, EdgeAnnotation]] = None,
    extra_recipes: _t.Sequence[Recipe] = (),
    entry: _t.Optional[str] = None,
    requests: int = 20,
    think_time: float = 0.05,
    settle: float = 5.0,
    max_recipes: _t.Optional[int] = None,
) -> CampaignPlan:
    """Expand, merge, deduplicate, prioritize, and seed a campaign.

    ``extra_recipes`` are operator-written recipes; they take precedence
    over auto-generated ones when both carry the same signature, so an
    operator can refine the generated test for one edge without the
    campaign running both variants.

    Ordering: high-criticality targets (per ``annotations``) first,
    then hard-failure patterns before slow-failure ones
    (:data:`PATTERN_RANK`), then by target service and name for
    stability.  Per-recipe seeds derive from ``seed`` and the recipe
    name via :func:`derive_seed`.
    """
    if requests < 1:
        raise CampaignError(f"requests must be >= 1, got {requests}")
    if not think_time >= 0:
        raise CampaignError(f"think_time must be >= 0, got {think_time}")
    application = factory()
    graph = application.logical_graph()
    services = set(graph.services())

    if entry is None:
        entries = graph.entry_services()
        if not entries:
            raise CampaignError(
                f"application {application.name!r} has no entry services;"
                " pass entry= explicitly"
            )
        entry = entries[0]
    elif entry not in services:
        raise CampaignError(
            f"unknown entry service {entry!r}; services: {', '.join(sorted(services))}"
        )

    candidates = list(extra_recipes) + generate_recipes(graph, annotations)

    seen_names: set[str] = set()
    seen_signatures: set[tuple] = set()
    deduplicated = 0
    unique: list[Recipe] = []
    for recipe in candidates:
        if recipe.name in seen_names:
            raise CampaignError(
                f"duplicate recipe name {recipe.name!r} in campaign input;"
                " names identify outcomes in scorecards and diffs"
            )
        seen_names.add(recipe.name)
        signature = recipe_signature(recipe)
        if signature in seen_signatures:
            deduplicated += 1
            continue
        seen_signatures.add(signature)
        for scenario in recipe.scenarios:
            target = scenario_target(scenario)
            if target != "*" and target not in services:
                raise CampaignError(
                    f"recipe {recipe.name!r} faults unknown service {target!r}"
                )
        unique.append(recipe)

    annotations = annotations or {}

    def sort_key(recipe: Recipe) -> tuple:
        primary = recipe.scenarios[0]
        target = scenario_target(primary)
        criticality = annotations.get(target, EdgeAnnotation()).criticality
        return (
            0 if criticality == "high" else 1,
            PATTERN_RANK.get(primary.kind, 99),
            target,
            recipe.name,
        )

    ordered = sorted(unique, key=sort_key)
    load = LoadSpec(entry=entry, requests=requests, think_time=think_time)
    planned = [
        PlannedRecipe(
            index=index,
            recipe=recipe,
            seed=derive_seed(seed, recipe.name),
            pattern=recipe.scenarios[0].kind,
            service=scenario_target(recipe.scenarios[0]),
            load=load,
            settle=settle,
        )
        for index, recipe in enumerate(ordered)
    ]
    plan = CampaignPlan(
        name=name or f"campaign-{application.name}",
        app=application.name,
        seed=seed,
        entries=planned,
        deduplicated=deduplicated,
    )
    if max_recipes is not None:
        plan = plan.limit(max_recipes)
    return plan

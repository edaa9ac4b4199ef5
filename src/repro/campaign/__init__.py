"""Campaign engine: fleet execution of auto-generated recipe suites.

The layer above the single-recipe control plane: a **planner** expands
:func:`~repro.core.autogen.generate_recipes` (plus operator recipes)
into a deduplicated, prioritized, per-recipe-seeded
:class:`CampaignPlan`; a **runner** executes the plan on a
:class:`Fleet` of N parallel workers — threads or spawn-isolated
processes (``backend="processes"``, the multi-core path); the same
fleet, with the same calling convention, runs exploration waves and
fuzz corpora — each recipe on its own freshly-built deployment so
outcomes are deterministic, worker-count-independent, and
backend-independent; the **results layer**
folds outcomes into a per-service/per-pattern :class:`Scorecard`,
reruns failures with perturbed seeds to separate broken from flaky
behaviour, and :func:`diff_campaigns` compares two runs for regression
detection; **io** dumps/loads the whole thing as JSON-lines.

Quick start::

    from repro.apps import build_tree_app
    from repro.campaign import CampaignRunner, plan_campaign

    plan = plan_campaign(lambda: build_tree_app(3), seed=42)
    result = CampaignRunner(lambda: build_tree_app(3), workers=4).run(plan)
    print(result.scorecard().text())
"""

from repro.campaign.diff import CampaignDiff, StatusChange, diff_campaigns
from repro.campaign.fleet import (
    BACKENDS,
    Fleet,
    ProcessPool,
    ProcessWorkerSpec,
    resolve_workers,
)
from repro.campaign.io import dump_jsonl, dumps, load_jsonl, loads
from repro.campaign.plan import (
    CampaignPlan,
    LoadSpec,
    PlannedRecipe,
    derive_seed,
    plan_campaign,
    recipe_signature,
    scenario_target,
)
from repro.campaign.results import CampaignResult, CheckOutcome, RecipeOutcome
from repro.campaign.runner import CampaignRunner, RecipeExecutor
from repro.campaign.scorecard import PatternScore, Scorecard

__all__ = [
    "BACKENDS",
    "CampaignDiff",
    "CampaignPlan",
    "CampaignResult",
    "CampaignRunner",
    "CheckOutcome",
    "Fleet",
    "LoadSpec",
    "PatternScore",
    "PlannedRecipe",
    "ProcessPool",
    "ProcessWorkerSpec",
    "RecipeExecutor",
    "RecipeOutcome",
    "Scorecard",
    "StatusChange",
    "derive_seed",
    "diff_campaigns",
    "dump_jsonl",
    "dumps",
    "load_jsonl",
    "loads",
    "plan_campaign",
    "recipe_signature",
    "resolve_workers",
    "scenario_target",
]

"""Campaign engine: fleet execution of auto-generated recipe suites.

The layer above the single-recipe control plane: a **planner** expands
:func:`~repro.core.autogen.generate_recipes` (plus operator recipes)
into a deduplicated, prioritized, per-recipe-seeded
:class:`CampaignPlan`; a **runner** executes the plan on a
:class:`Fleet` of N parallel workers — threads or processes forked
from one fork server (``backend="processes"``, the multi-core path);
the same fleet, with the same calling convention, runs exploration
waves and fuzz corpora — each recipe on its own freshly-built deployment so
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

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "diff": ["CampaignDiff", "StatusChange", "diff_campaigns"],
        "fleet": [
            "BACKENDS",
            "Fleet",
            "ProcessWorkerSpec",
            "resolve_workers",
        ],
        "io": ["dump_jsonl", "dumps", "load_jsonl", "loads"],
        "plan": [
            "CampaignPlan",
            "LoadSpec",
            "PlannedRecipe",
            "derive_seed",
            "plan_campaign",
            "recipe_signature",
            "scenario_target",
        ],
        "processes": ["ProcessPool"],
        "results": ["CampaignResult", "CheckOutcome", "RecipeOutcome"],
        "runner": ["CampaignRunner", "RecipeExecutor"],
        "scorecard": ["PatternScore", "Scorecard"],
    },
)

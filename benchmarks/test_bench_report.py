"""Cascade-analytics efficacy: report size and what-if triage.

Two numbers, both deterministic for the seed:

1. **Report size** — the resilience report (dependency graph, blast
   radii, root-cause ranking, what-if predictions) folded from the
   42-recipe ``tree3`` campaign, rendered as JSON and as HTML.  What
   building it costs is ``observability.report_ms`` in ``bench/``.

2. **What-if triage** — ordering exploration candidates by graph
   simulation alone (static schedule, no online feedback) must reach
   every planted bug in **at most 60%** of the fault executions the
   prioritized learning frontier needs, summed over the seeded-bug
   suite.  That is the subsystem's reason to exist: the discovered
   graph plus a cheap propagation model replaces most of the feedback
   loop's runtime learning.

Numbers land in ``BENCH_report.json`` via the session-finish hook in
``conftest.py``.
"""

from repro.apps import build_tree_app
from repro.campaign import CampaignRunner, plan_campaign
from repro.explore import run_explore

SEED = 0
#: The three small seeded-bug apps, as in ``bench/``'s ``explore_seeded``;
#: the production-scale entries of ``SEEDED_BUG_SUITE`` are not part of
#: this comparison.
SEEDED_APPS = ("deepfanout", "retrystorm", "stuckbreaker")
BUDGET = 150
MAX_TRIAGE_RATIO = 0.6


def test_report_size_on_the_42_recipe_campaign(report, bench_file):
    factory = lambda: build_tree_app(3)  # noqa: E731 - matches campaign idiom
    plan = plan_campaign(factory, seed=SEED, requests=6)
    assert len(plan.entries) == 42, "tree3 is the 42-recipe campaign"

    resilience = CampaignRunner(factory, workers=1).run(plan).resilience_report()
    json_text = resilience.to_json()
    html_text = resilience.to_html()
    assert json_text and html_text

    # (The key keeps its historical name: bench/README.md cites it.)
    bench_file("BENCH_report.json")["overhead"] = {
        "recipes": len(plan.entries),
        "report_json_bytes": len(json_text),
        "report_html_bytes": len(html_text),
    }
    report.add(
        "resilience report: size on the 42-recipe campaign",
        f"JSON {len(json_text)} bytes, HTML {len(html_text)} bytes",
    )


def test_whatif_triage_beats_prioritized_frontier(report, bench_file):
    per_app: dict = {}
    totals = {"whatif": 0, "prioritized": 0}
    for app in SEEDED_APPS:
        per_app[app] = {}
        for strategy in ("whatif", "prioritized"):
            result = run_explore(
                app, budget=BUDGET, seed=SEED, strategy=strategy,
                stop_when_found=True,
            )
            assert result.all_bugs_found, (
                f"{strategy} missed bugs on {app}: {result.report.render()}"
            )
            totals[strategy] += result.executions_to_all_bugs
            per_app[app][strategy] = result.executions_to_all_bugs

    ratio = totals["whatif"] / totals["prioritized"]
    assert ratio <= MAX_TRIAGE_RATIO, (
        f"whatif needed {totals['whatif']} executions vs prioritized's"
        f" {totals['prioritized']} (ratio {ratio:.2f} > {MAX_TRIAGE_RATIO})"
    )

    bench_file("BENCH_report.json")["whatif_triage"] = {
        "seed": SEED,
        "budget": BUDGET,
        "apps": per_app,
        "whatif_total": totals["whatif"],
        "prioritized_total": totals["prioritized"],
        "ratio": round(ratio, 4),
        "max_ratio": MAX_TRIAGE_RATIO,
    }
    lines = [
        f"{'app':14s} {'whatif':>7s} {'prioritized':>11s}",
        *(
            f"{app:14s} {per_app[app]['whatif']:>7d}"
            f" {per_app[app]['prioritized']:>11d}"
            for app in sorted(per_app)
        ),
        f"{'TOTAL':14s} {totals['whatif']:>7d} {totals['prioritized']:>11d}"
        f"   ratio={ratio:.2f} (required <= {MAX_TRIAGE_RATIO})",
    ]
    report.add(
        "what-if triage: executions to find all planted bugs", "\n".join(lines)
    )

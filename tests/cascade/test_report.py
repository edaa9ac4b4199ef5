"""The resilience report artifact: determinism, HTML, verdicts."""

import json

from repro.apps import build_twotier
from repro.campaign import CampaignRunner, plan_campaign
from repro.campaign.results import CampaignResult, CheckOutcome, RecipeOutcome
from repro.explore.coverage import BugFinding, CoverageReport
from repro.observability.cascade.graph import DependencyGraph
from repro.observability.cascade.report import (
    VERDICT_COLORS,
    build_explore_report,
    build_report,
)


def metrics_snapshot():
    return {
        "counters": {
            'gremlin_requests_total{dst="a",src="user"}': 8,
            'gremlin_requests_total{dst="b",src="a"}': 8,
            'gremlin_requests_total{dst="c",src="a"}': 8,
        },
        "gauges": {},
        "histograms": {},
    }


def synthetic_campaign():
    """Three services: b fails deterministically, c passes, a untested."""
    failing = RecipeOutcome(
        index=0, name="overload-b", pattern="timeout", service="b", seed=1,
        status="fail", classification="broken",
        checks=[
            CheckOutcome(
                name="HasTimeouts(a, 1s)", passed=False, inconclusive=False,
                detail="",
            )
        ],
        metrics=metrics_snapshot(),
        attributions=[
            {
                "edge": "a -> b",
                "fault": "abort(503)",
                "outcome": "status=500",
                "on_critical_path": True,
                "propagation_path": [
                    "a -> b (status=503)",
                    "user -> a (status=500)",
                ],
            }
        ],
    )
    passing = RecipeOutcome(
        index=1, name="overload-c", pattern="bounded", service="c", seed=2,
        status="pass",
        checks=[
            CheckOutcome(
                name="BoundedRetries(a)", passed=True, inconclusive=False,
                detail="",
            )
        ],
        # Timing/worker noise that must NOT leak into the report.
        wall_time=123.4, orchestration_time=5.0, worker=7,
    )
    return CampaignResult(
        name="synthetic", app="app", seed=1, workers=2,
        outcomes=[failing, passing], wall_time=99.0,
    )


class TestBuildReport:
    def test_verdicts_cover_every_non_source_service(self):
        report = build_report(synthetic_campaign())
        assert report.verdicts["b"] == "vulnerable"
        assert report.verdicts["c"] == "resilient"
        # a was never a recipe target but is in the graph: untested.
        assert report.verdicts["a"] == "untested"
        # The traffic source is not a service under test.
        assert "user" not in report.verdicts

    def test_document_shape(self):
        doc = build_report(synthetic_campaign()).to_dict()
        assert doc["report"] == "resilience"
        assert doc["source"] == "campaign"
        assert doc["passed"] is False
        assert doc["counts"]["fail"] == 1 and doc["counts"]["pass"] == 1
        assert "a -> b" in doc["graph"]["edges"]
        assert doc["blast"]["b"]["impacted"] == {"a": 1, "user": 1}
        assert [c["edge"] for c in doc["root_causes"]["HasTimeouts(a, 1s)"]] == [
            "a -> b"
        ]
        assert {p["service"] for p in doc["predictions"]} == {"a", "b", "c"}
        assert doc["scorecard"] is not None and doc["exploration"] is None

    def test_no_timing_or_worker_fields_anywhere(self):
        text = build_report(synthetic_campaign()).to_json()
        doc = json.loads(text)
        forbidden = {
            "wall_time", "orchestration_time", "assertion_time", "worker",
            "workers",
        }

        def walk(node):
            if isinstance(node, dict):
                assert not forbidden.intersection(node), sorted(
                    forbidden.intersection(node)
                )
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)

    def test_recipe_rows_are_plan_identity_plus_verdicts(self):
        report = build_report(synthetic_campaign())
        assert report.recipes == [
            {
                "index": 0,
                "name": "overload-b",
                "pattern": "timeout",
                "service": "b",
                "seed": 1,
                "status": "fail",
                "classification": "broken",
                "failed_checks": ["HasTimeouts(a, 1s)"],
                "attributions": 1,
            },
            {
                "index": 1,
                "name": "overload-c",
                "pattern": "bounded",
                "service": "c",
                "seed": 2,
                "status": "pass",
                "classification": None,
                "failed_checks": [],
                "attributions": 0,
            },
        ]

    def test_json_identical_across_worker_counts(self):
        """The acceptance contract: same seed => byte-identical report
        regardless of fleet shape."""
        factory = build_twotier
        plan = plan_campaign(factory, seed=31, requests=6)
        serial = CampaignRunner(factory, workers=1).run(plan)
        fleet = CampaignRunner(factory, workers=3).run(plan)
        assert build_report(serial).to_json() == build_report(fleet).to_json()

    def test_json_is_idempotent(self):
        result = synthetic_campaign()
        assert build_report(result).to_json() == build_report(result).to_json()


class TestHtml:
    def test_standalone_page_with_svg_diagram(self):
        html = build_report(synthetic_campaign()).to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "</svg>" in html
        for service in ("a", "b", "c", "user"):
            assert f">{service}</text>" in html
        for verdict, color in VERDICT_COLORS.items():
            assert color in html
        assert "FAILED" in html
        assert "HasTimeouts(a, 1s)" in html
        # Self-contained: no external fetches.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_graphless_report_still_renders(self):
        coverage = empty_coverage()
        html = build_explore_report(coverage).to_html()
        assert "No dependency graph discovered" in html

    def test_save_picks_format_from_extension(self, tmp_path):
        report = build_report(synthetic_campaign())
        json_path = tmp_path / "report.json"
        html_path = tmp_path / "report.html"
        report.save(str(json_path))
        report.save(str(html_path))
        assert json.loads(json_path.read_text())["report"] == "resilience"
        assert html_path.read_text().startswith("<!DOCTYPE html>")


def empty_coverage(findings=()):
    return CoverageReport(
        app="deepfanout", strategy="whatif", seed=0, budget=10,
        edges_discovered=3, coordinates_enumerated=12, sweep_coordinates=8,
        single_coordinates=4, executed=5, pruned=2, errors=0,
        baseline_shapes=1, shapes_seen=3, new_shapes=2,
        bugs_planted=["deepfanout/missing-timeout"],
        findings=list(findings),
        executions_to_all_bugs=4 if findings else None,
    )


class TestBuildExploreReport:
    def test_findings_mark_the_exercised_service_vulnerable(self):
        graph = DependencyGraph()
        for src, dst in [
            ("load", "portal"), ("portal", "catalog"), ("catalog", "pricing"),
        ]:
            graph.edge(src, dst).calls = 5
        finding = BugFinding(
            bug_id="deepfanout/missing-timeout",
            coordinate="sweep:catalog->pricing:delay",
            execution_index=4,
            failed_checks=("HasTimeouts(catalog, 1s)",),
        )
        report = build_explore_report(empty_coverage([finding]), graph)
        assert report.source == "explore"
        assert report.passed is False
        # The coordinate's caller is the service whose pattern failed.
        assert report.verdicts["catalog"] == "vulnerable"
        assert report.verdicts["portal"] == "untested"
        assert "load" not in report.verdicts
        assert report.counts == {
            "executed": 5, "pruned": 2, "errors": 0, "findings": 1,
        }
        assert report.exploration["app"] == "deepfanout"

    def test_clean_exploration_passes(self):
        report = build_explore_report(empty_coverage())
        assert report.passed is True
        assert report.verdicts == {}
        assert report.name == "explore/deepfanout/whatif"

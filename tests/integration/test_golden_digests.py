"""Golden digests: literal values every driver must keep producing.

Each driver (campaign, explore, fuzz, the declarative facade) runs the
same deploy -> inject -> drive -> drain -> check sequence; these tests
pin the bytes each one distills from it, so a refactor of that
sequence that changes any record, timestamp, rule numbering, window or
verdict fails here rather than only in the benchmark's cross-checks.
The values were recorded before the drivers shared one run function
(the metrics pins: while counters and histograms were still sharded
per thread) and must never be re-pinned to make a change pass.
"""

import hashlib
import json

from repro.agent.rules import fresh_rule_ids
from repro.apps import build_socialnetwork_app, build_twotier
from repro.campaign import CampaignRunner, plan_campaign
from repro.core import (
    Gremlin,
    HasBoundedRetries,
    HasTimeouts,
    Overload,
    Recipe,
)
from repro.core.autogen import EdgeAnnotation
from repro.core.scenarios import (
    AbortCalls,
    Crash,
    Degrade,
    DelayCalls,
    Disconnect,
    FakeSuccess,
    GrayFailure,
    Hang,
    Misconfiguration,
    ModifyReplies,
    NetworkPartition,
    NoOpControl,
    ResourceExhaustion,
    RetryStorm,
)
from repro.explore import run_explore
from repro.fuzz import FuzzGenerator, run_case, scenario_to_spec
from repro.loadgen import ClosedLoopLoad
from repro.microservice.resilience.policy import PolicySpec
from repro.observability.cascade import build_explore_report
from repro.observability.exporters import to_json, to_prometheus


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def verdict_fields(outcome):
    """The fields of a campaign verdict, and no wall-clock field."""
    return (
        outcome.name,
        outcome.seed,
        outcome.status,
        [(c.name, c.passed, c.inconclusive) for c in outcome.checks],
        tuple(outcome.window),
        list(outcome.latencies),
        list(outcome.attempts),
        outcome.classification,
    )


def test_twotier_campaign_verdicts():
    annotations = {
        service: EdgeAnnotation(criticality="high")
        for service in build_twotier().logical_graph().services()
    }
    plan = plan_campaign(
        build_twotier, seed=5, annotations=annotations, requests=5, max_recipes=6
    )
    result = CampaignRunner(build_twotier, workers=1, rerun_failures=1).run(plan)
    assert [outcome.status for outcome in result.outcomes] == GOLDEN_CAMPAIGN_STATUSES
    assert sha([verdict_fields(outcome) for outcome in result.outcomes]) == (
        GOLDEN_CAMPAIGN_DIGEST
    )


def test_explore_executed_digests():
    executed = run_explore("deepfanout", budget=16, seed=0).executed
    assert len(executed) == 16
    assert executed[0] == GOLDEN_EXPLORE_FIRST
    assert sha(executed) == GOLDEN_EXPLORE_DIGEST


def test_fuzz_case_digests():
    generator = FuzzGenerator(0, app_fraction=0.0)
    assert [run_case(generator.case(index)).digest for index in range(5)] == (
        GOLDEN_FUZZ_DIGESTS
    )


def test_run_recipe_window_and_verdicts():
    deployment = build_twotier().deploy(seed=3)
    source = deployment.add_traffic_source("ServiceA")
    gremlin = Gremlin(deployment)
    recipe = Recipe(
        name="overload-b",
        scenarios=[Overload("ServiceB", abort_fraction=1.0)],
        checks=[
            HasBoundedRetries("ServiceA", "ServiceB", max_tries=5, window="10s"),
            HasTimeouts("ServiceA", "1s"),
        ],
        load=lambda _deployment: ClosedLoopLoad(
            num_requests=6, think_time=0.05
        ).driver(source),
        settle=2.0,
    )
    seen = []
    # Twice on one deployment: the second window starts where the first
    # ended, so only its own traffic is judged.
    for _ in range(2):
        with fresh_rule_ids():
            result = gremlin.run_recipe(recipe)
        seen.append(
            (
                result.window,
                [(c.name, c.passed, c.inconclusive, c.detail) for c in result.checks],
                result.distinct_scopes,
                result.shared_fetches,
            )
        )
    assert json.loads(json.dumps(seen)) == json.loads(json.dumps(GOLDEN_RUN_RECIPE))


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scenario_spec_bytes():
    """One instance per scenario kind: the spec codec's exact JSON,
    parameter order and bytes-to-text decoding included."""
    scenarios = [
        AbortCalls(
            "a", "b", error=500, on="response", probability=0.5,
            max_matches=2, skip_matches=1,
        ),
        DelayCalls("a", "b", "250ms", pattern="test-1"),
        ModifyReplies("a", "b", b"ok", b"KO", id_pattern="test-*"),
        Disconnect("a", "b", error=502),
        Crash("b", probability=0.0),
        Hang("b", interval="2s"),
        Overload("b", abort_fraction=0.5, interval="50ms"),
        Degrade("b", interval="1s"),
        NetworkPartition(("a",), ["b", "c"]),
        FakeSuccess("b", pattern="ok", replace_bytes="bad"),
        RetryStorm("b", error=502, probability=0.5),
        GrayFailure("b", interval="300ms", slow_fraction=0.25),
        Misconfiguration("b", mode="reply", replace_bytes="XX"),
        ResourceExhaustion("b", interval="75ms", shed_after=3, error=429),
        NoOpControl("b", pattern="test-2"),
    ]
    specs = [scenario_to_spec(scenario) for scenario in scenarios]
    assert sha256_json(specs) == GOLDEN_SCENARIO_SPECS


def test_generated_fuzz_corpus_bytes():
    cases = FuzzGenerator(2026).generate(60)
    assert sha256_json([case.to_dict() for case in cases]) == GOLDEN_FUZZ_CORPUS


def test_campaign_merged_metrics_bytes():
    """Every recipe's registry snapshot folded, in both export formats."""
    plan = plan_campaign(build_socialnetwork_app, seed=11, requests=5, max_recipes=3)
    merged = CampaignRunner(build_socialnetwork_app, workers=1).run(plan).merged_metrics()
    assert merged["counters"] and merged["histograms"]
    assert [sha256_text(to_json(merged)), sha256_text(to_prometheus(merged))] == (
        GOLDEN_CAMPAIGN_METRICS
    )


def test_deployment_metrics_snapshot_bytes():
    """One deployment's snapshot, unmerged: a counter nothing touched
    reads as the int ``0`` and a touched one as a float, next to a
    tripped breaker's gauge."""
    deployment = build_twotier(policy=PolicySpec.hardened()).deploy(seed=3)
    source = deployment.add_traffic_source("ServiceA")
    Gremlin(deployment).inject(Overload("ServiceB", abort_fraction=1.0))
    ClosedLoopLoad(num_requests=10, think_time=0.05).run(source)
    snapshot = deployment.metrics_snapshot()
    assert type(snapshot["counters"]['service_requests_total{service="ServiceB"}']) is int
    assert snapshot["gauges"] == {'client_breaker_state{dst="ServiceB",src="ServiceA"}': 2.0}
    assert sha256_text(json.dumps(snapshot, sort_keys=True)) == GOLDEN_DEPLOYMENT_METRICS


def test_resilience_report_bytes():
    """The operator report of two seed-fixed campaigns, as JSON and as
    HTML: the 28-service app's discovered graph and blast predictions,
    and a twotier run whose failures carry attributions, so the blast
    and root-cause sections are filled."""
    annotations = {
        service: EdgeAnnotation(criticality="high")
        for service in build_twotier().logical_graph().services()
    }
    campaigns = [
        (
            build_socialnetwork_app,
            plan_campaign(build_socialnetwork_app, seed=11, requests=20, max_recipes=12),
        ),
        (
            build_twotier,
            plan_campaign(
                build_twotier, seed=5, annotations=annotations, requests=5, max_recipes=6
            ),
        ),
    ]
    reports = [
        CampaignRunner(factory, workers=1).run(plan).resilience_report()
        for factory, plan in campaigns
    ]
    assert len(reports[0].graph.edges) > 20
    assert reports[1].root_causes and reports[1].blast
    assert [
        [sha256_text(report.to_json()), sha256_text(report.to_html())]
        for report in reports
    ] == GOLDEN_RESILIENCE_REPORTS


def test_explore_report_bytes():
    """An exploration's report over its discovery run's graph."""
    result = run_explore("deepfanout", budget=16, seed=0)
    report = build_explore_report(result.report, result.space.graph)
    assert [sha256_text(report.to_json()), sha256_text(report.to_html())] == (
        GOLDEN_EXPLORE_REPORT
    )


GOLDEN_RESILIENCE_REPORTS = [
    [
        "91a487b6c74c26f6f42938c24507e20fa711ea8fe4d2320f449554353568c812",
        "ba1de85c1e68d5a23694bb318a27f2623ff84e0cdd575f76c5b17f285c6b8954",
    ],
    [
        "7e65006f60be4ebc9bbff72ffdc899a26110ec8f2caafa2fdd4f7dacb4a73b3a",
        "4405d90750a8ece608ce273fc4d37c3bd046342b53823cf322fc6fb9dd9398b4",
    ],
]
GOLDEN_EXPLORE_REPORT = [
    "69032d8e3cfd1af0b832d382659f241fac09df0047f81483be816180c67b25ce",
    "90b4d5d7d375debf07830cb3ce4dd2b893d47260982f17658c826e6c469b0ced",
]
GOLDEN_CAMPAIGN_METRICS = [
    "e82f572418f071aadc318ea2be59a80430b66a7fafd3c79f2f5b1d3655f44984",
    "aa3336603560dcaa4d04b833cb767b93be9a7e88652c3de7a7798ac07ac6de21",
]
GOLDEN_DEPLOYMENT_METRICS = (
    "0a90bd5a66dc80880099275a45bfa139ed70dc10382ddccb44a1462f809d9f8b"
)
GOLDEN_SCENARIO_SPECS = (
    "d877ad1cead55180a2f9f1434356df027cf99d5dceb945f5c2416462f590565c"
)
GOLDEN_FUZZ_CORPUS = (
    "05ba27940554f3da1be0bb0a26fe85e0ed2fd6a0e474870a9969ef28f07b3598"
)
GOLDEN_CAMPAIGN_STATUSES = ["fail", "inconclusive", "fail", "fail", "fail"]
GOLDEN_CAMPAIGN_DIGEST = "802c156f3c6c8bc9"
GOLDEN_EXPLORE_FIRST = (
    "sweep:user->gateway:abort",
    "e0c740fc4774614bb393464872fff8954907762e112e20e2159c774e3f2ec9eb",
)
GOLDEN_EXPLORE_DIGEST = "eb4eac5135647ad9"
GOLDEN_FUZZ_DIGESTS = [
    "13e732a13edf33fcc4973cbe26b3cdbf26ee303f2ee03e35fa7f8ae0bcf32b24",
    "5f952c0866a80bfe5e9661e6449057f2d8d8312e25dcaa3bd8bf89763cd4ced2",
    "3e7c7781a83d349704f2c6807fccc219796c37f823abef9dda79fbdccca60754",
    "625e4b5818a28ed8f85348608fdac9ffbe8e7cf8cfe02706fc1579425a965fb1",
    "4625570580e125bb00fe73f11dfc6882cf6bd63a94c34833965598e0d42fd04d",
]
_RECIPE_CHECKS = [
    (
        "HasBoundedRetries(ServiceA, ServiceB, 5)",
        False,
        False,
        "31 requests within 10s window (limit 5, withRule=False)",
    ),
    (
        "HasTimeouts(ServiceA, 1s)",
        False,
        False,
        "6 replies from 'ServiceA': 6 exceeded 1s, 0 calls never completed",
    ),
]
GOLDEN_RUN_RECIPE = [
    ((0.0, 12.569129999999983), _RECIPE_CHECKS, 3, 3),
    ((12.569129999999983, 25.138259999999928), _RECIPE_CHECKS, 3, 3),
]

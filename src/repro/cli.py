"""Command-line interface: ``python -m repro <command>``.

A small operator-facing front end over the library, mirroring how the
paper's operators interacted with Gremlin from scripts:

* ``python -m repro apps`` — list the prebuilt application topologies;
* ``python -m repro graph <app>`` — print an app's logical graph;
* ``python -m repro recipes <app>`` — auto-generate recipes (Section 9)
  for an app's graph and print them;
* ``python -m repro test <app> --scenario overload --target <svc>`` —
  deploy the app, stage a scenario, drive load, and report every
  pattern check Gremlin can evaluate on the faulted edges;
* ``python -m repro trace <app> <request-id>`` — run a faulted load
  and render the reconstructed causal tree of one request, with the
  injected fault and the latency-critical path annotated;
* ``python -m repro metrics <app>`` — run a (optionally faulted) load
  and print the deployment's metrics snapshot as Prometheus text or
  JSON;
* ``python -m repro campaign run <app>`` — plan and execute a whole
  auto-generated campaign across parallel workers, print the
  resilience scorecard, optionally dump the result as JSON-lines;
* ``python -m repro campaign smoke <app>`` — capped, fast campaign
  proving the fleet wiring end to end;
* ``python -m repro campaign diff <a> <b>`` — regression detection
  between two dumped campaign results;
* ``python -m repro report <dump>`` — render the operator resilience
  report (deterministic JSON or standalone HTML) from a dumped
  campaign; ``campaign run --report-out`` and ``fuzz explore
  --report-out`` produce the same artifact inline.

``repro recipes``/``repro test``/``campaign`` accept ``--json`` for
machine-readable output, so campaign tooling and scripts can consume
them without parsing tables.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as _t

from repro.apps import (
    build_billing_app,
    build_coreservice_app,
    build_database_app,
    build_deepfanout_app,
    build_enterprise_app,
    build_hotelreservation_app,
    build_messagebus_app,
    build_retrystorm_app,
    build_socialnetwork_app,
    build_stuckbreaker_app,
    build_tree_app,
    build_twotier,
    build_wordpress_app,
)
from repro.campaign import (
    BACKENDS,
    CampaignRunner,
    diff_campaigns,
    dump_jsonl,
    load_jsonl,
    plan_campaign,
    resolve_workers,
)
from repro.core import (
    Crash,
    Degrade,
    EdgeAnnotation,
    Gremlin,
    Hang,
    HasBoundedRetries,
    HasTimeouts,
    Overload,
    generate_recipes,
)
from repro.errors import AnalysisError, CampaignError, ExploreError, TraceError
from repro.loadgen import ClosedLoopLoad
from repro.microservice import Application
from repro.observability import attribute_trace, reconstruct, to_json, to_prometheus

__all__ = ["main", "APPS", "build_tree3_app"]


def build_tree3_app() -> Application:
    """Depth-3 service tree (module-level so the ``processes`` fleet
    backend can pickle the factory to its spawn-started workers)."""
    return build_tree_app(3)


#: Name -> zero-argument builder for every prebuilt application.  All
#: builders are importable module-level callables, which is what lets
#: ``--backend processes`` ship any of them to worker interpreters.
APPS: dict[str, _t.Callable[[], Application]] = {
    "twotier": build_twotier,
    "wordpress": build_wordpress_app,
    "enterprise": build_enterprise_app,
    "tree3": build_tree3_app,
    "messagebus": build_messagebus_app,
    "database": build_database_app,
    "coreservice": build_coreservice_app,
    "billing": build_billing_app,
    # Seeded-resilience-bug fixtures (ground truth for `fuzz explore`).
    "deepfanout": build_deepfanout_app,
    "retrystorm": build_retrystorm_app,
    "stuckbreaker": build_stuckbreaker_app,
    # Production-scale benchmark apps (DeathStarBench-class; naive
    # builds — pass resilient=True in code for the hardened variants).
    "socialnetwork": build_socialnetwork_app,
    "hotelreservation": build_hotelreservation_app,
}

_SCENARIOS = {
    "overload": lambda target: Overload(target),
    "crash": lambda target: Crash(target),
    "hang": lambda target: Hang(target),
    "degrade": lambda target: Degrade(target, interval="2s"),
}


def _build(name: str) -> Application:
    try:
        return APPS[name]()
    except KeyError:
        raise SystemExit(f"unknown app {name!r}; available: {', '.join(APPS)}") from None


def cmd_apps(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        catalog = []
        for name, builder in APPS.items():
            app = builder()
            graph = app.logical_graph()
            catalog.append(
                {
                    "name": name,
                    "services": list(app.definitions),
                    "num_services": len(app.definitions),
                    "num_edges": len(graph.edges()),
                    "entry_services": graph.entry_services(),
                }
            )
        print(json.dumps({"apps": catalog}, indent=2))
        return 0
    print("prebuilt applications:")
    for name, builder in APPS.items():
        app = builder()
        print(f"  {name:<16} {len(app.definitions):>2} services: {', '.join(app.definitions)}")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    graph = _build(args.app).logical_graph()
    print(f"logical application graph of {args.app!r}:")
    for caller, callee in sorted(graph.edges()):
        print(f"  {caller} -> {callee}")
    print(f"entry services: {', '.join(graph.entry_services())}")
    print(f"leaf services:  {', '.join(graph.leaf_services())}")
    return 0


def cmd_recipes(args: argparse.Namespace) -> int:
    graph = _build(args.app).logical_graph()
    recipes = generate_recipes(graph)
    if args.json:
        print(
            json.dumps(
                {
                    "app": args.app,
                    "recipes": [
                        {
                            "name": recipe.name,
                            "scenarios": [s.describe() for s in recipe.scenarios],
                            "checks": [check.name for check in recipe.checks],
                        }
                        for recipe in recipes
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(f"{len(recipes)} auto-generated recipes for {args.app!r}:")
    for recipe in recipes:
        scenario_text = ", ".join(scenario.describe() for scenario in recipe.scenarios)
        print(f"  {recipe.name:<32} [{scenario_text}] {len(recipe.checks)} checks")
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    app = _build(args.app)
    deployment = app.deploy(seed=args.seed)
    graph = deployment.graph
    if args.target not in graph.services():
        raise SystemExit(
            f"unknown target {args.target!r}; services: {', '.join(graph.services())}"
        )
    entry = args.entry or graph.entry_services()[0]
    source = deployment.add_traffic_source(entry)
    gremlin = Gremlin(deployment)

    scenario = _SCENARIOS[args.scenario](args.target)
    if not args.json:
        print(f"staging {scenario.describe()} on {args.app!r}; load via {entry!r}")
    gremlin.inject(scenario)
    ClosedLoopLoad(num_requests=args.requests, think_time=args.think).run(source)

    failed = 0
    results = []
    for caller in graph.dependents(args.target):
        for check in (
            HasTimeouts(caller, "1s"),
            HasBoundedRetries(caller, args.target, max_tries=5, window="10s"),
        ):
            result = check.run(deployment.store)
            results.append(result)
            if not args.json:
                print(f"  {result}")
            if not result.passed and not result.inconclusive:
                failed += 1
    gremlin.clear()
    if args.json:
        print(
            json.dumps(
                {
                    "app": args.app,
                    "target": args.target,
                    "scenario": scenario.describe(),
                    "entry": entry,
                    "checks": [
                        {
                            "name": result.name,
                            "passed": result.passed,
                            "inconclusive": result.inconclusive,
                            "detail": result.detail,
                        }
                        for result in results
                    ],
                    "issues_found": bool(failed),
                },
                indent=2,
            )
        )
    else:
        print("verdict:", "ISSUES FOUND" if failed else "no conclusive failures")
    return 1 if failed else 0


# -- observability subcommands -------------------------------------------------


def _faulted_run(args: argparse.Namespace):
    """Deploy an app, optionally stage a scenario, drive load; returns
    (deployment, gremlin, installed rules) with the pipeline flushed."""
    app = _build(args.app)
    deployment = app.deploy(seed=args.seed)
    graph = deployment.graph
    entry = args.entry or graph.entry_services()[0]
    if entry not in graph.services():
        raise SystemExit(
            f"unknown entry {entry!r}; services: {', '.join(graph.services())}"
        )
    source = deployment.add_traffic_source(entry)
    gremlin = Gremlin(deployment)
    rules = []
    if args.target is not None:
        if args.target not in graph.services():
            raise SystemExit(
                f"unknown target {args.target!r}; services: {', '.join(graph.services())}"
            )
        scenario = _SCENARIOS[args.scenario](args.target)
        rules = gremlin.inject(scenario).rules
    ClosedLoopLoad(num_requests=args.requests, think_time=args.think).run(source)
    deployment.sim.run()
    deployment.pipeline.flush()
    return deployment, gremlin, rules


def cmd_trace(args: argparse.Namespace) -> int:
    deployment, _gremlin, rules = _faulted_run(args)
    try:
        trace = reconstruct(deployment.store, args.request_id)
    except TraceError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        doc = trace.to_dict()
        doc["attributions"] = [a.to_dict() for a in attribute_trace(trace, rules)]
        print(json.dumps(doc, indent=2))
        return 0
    print(trace.render())
    attributions = attribute_trace(trace, rules)
    if attributions:
        print("fault attribution:")
        for attribution in attributions:
            print(f"  {attribution.describe()}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    deployment, _gremlin, _rules = _faulted_run(args)
    snapshot = deployment.metrics_snapshot()
    if args.format == "json":
        print(to_json(snapshot), end="")
    else:
        print(to_prometheus(snapshot), end="")
    return 0


# -- campaign subcommands ------------------------------------------------------


def _plan_from_args(args: argparse.Namespace):
    factory = APPS[args.app] if args.app in APPS else None
    if factory is None:
        raise SystemExit(f"unknown app {args.app!r}; available: {', '.join(APPS)}")
    annotations = None
    if getattr(args, "criticality_high", False):
        services = factory().logical_graph().services()
        annotations = {s: EdgeAnnotation(criticality="high") for s in services}
    extra_recipes: _t.Sequence = ()
    if getattr(args, "recipes", None):
        from repro.explore import read_recipe_suite

        try:
            suite_app, extra_recipes = read_recipe_suite(args.recipes)
        except ExploreError as exc:
            raise SystemExit(str(exc)) from None
        if suite_app != args.app:
            raise SystemExit(
                f"recipe suite {args.recipes!r} targets app {suite_app!r},"
                f" not {args.app!r}"
            )
    try:
        plan = plan_campaign(
            factory,
            seed=args.seed,
            annotations=annotations,
            extra_recipes=extra_recipes,
            entry=args.entry,
            requests=args.requests,
            think_time=args.think,
            max_recipes=args.max_recipes,
        )
    except CampaignError as exc:
        raise SystemExit(str(exc)) from None
    return factory, plan


def _workers_arg(value: str) -> int:
    """argparse type for ``--workers``: a positive int, or ``auto`` for
    one worker per usable CPU — the fleet's own validation, surfaced as
    a usage error."""
    try:
        return resolve_workers(value)
    except CampaignError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_campaign_run(args: argparse.Namespace) -> int:
    factory, plan = _plan_from_args(args)
    runner = CampaignRunner(
        factory,
        workers=args.workers,
        backend=args.backend,
        timeout=args.timeout,
        pacing=args.pacing,
        fail_fast=args.fail_fast,
        rerun_failures=args.rerun,
    )
    if not args.json:
        print(plan.summary())
    result = runner.run(plan)
    if args.out:
        dump_jsonl(result, args.out)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(to_json(result.merged_metrics()))
    if args.report_out:
        result.resilience_report().save(args.report_out)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.scorecard().text())
        for outcome in result.flaky:
            print(f"  FLAKY  {outcome.name}: attempts {outcome.attempts}")
        for outcome in result.broken:
            print(f"  BROKEN {outcome.name}: attempts {outcome.attempts}")
        print(result.summary())
        if args.out:
            print(f"result written to {args.out}")
        if args.metrics_out:
            print(f"merged metrics written to {args.metrics_out}")
        if args.report_out:
            print(f"resilience report written to {args.report_out}")
    return 0 if result.passed else 1


def cmd_campaign_smoke(args: argparse.Namespace) -> int:
    """Capped fast campaign proving the fleet wiring end to end."""
    factory, plan = _plan_from_args(args)
    runner = CampaignRunner(
        factory,
        workers=args.workers,
        backend=args.backend,
        timeout=args.timeout,
        rerun_failures=1,
    )
    result = runner.run(plan)
    broken_wiring = [
        outcome for outcome in result.outcomes if outcome.status in ("error", "timeout")
    ]
    if args.report_out:
        result.resilience_report().save(args.report_out)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for outcome in result.outcomes:
            print(f"  [{outcome.status.upper():^12}] {outcome.name}")
        print(result.summary())
        if args.report_out:
            print(f"resilience report written to {args.report_out}")
    return 1 if broken_wiring else 0


def cmd_campaign_diff(args: argparse.Namespace) -> int:
    try:
        baseline = load_jsonl(args.baseline)
        candidate = load_jsonl(args.candidate)
    except (OSError, CampaignError) as exc:
        raise SystemExit(str(exc)) from None
    diff = diff_campaigns(baseline, candidate)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.text())
    if diff.latency_error is not None:
        raise AnalysisError(diff.latency_error)
    return 1 if diff.has_regressions else 0


# -- fuzz subcommands ----------------------------------------------------------


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        args.seed,
        args.cases,
        workers=args.workers,
        backend=args.backend,
        app_registry=APPS,
        artifacts_dir=args.artifacts,
        shrink_failures=not args.no_shrink,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.errors import GremlinError
    from repro.fuzz import replay_artifact

    try:
        result = replay_artifact(args.artifact, app_registry=APPS)
    except (OSError, GremlinError, KeyError, ValueError) as exc:
        raise SystemExit(f"cannot replay {args.artifact}: {exc}") from None
    doc = {
        "case_id": result.report.case.case_id,
        "reproduced": result.reproduced,
        "expected_mismatch_kinds": result.expected_kinds,
        "observed_mismatch_kinds": result.report.mismatch_kinds(),
        "expected_digest": result.expected_digest,
        "observed_digest": result.report.digest,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        verdict = "reproduced" if result.reproduced else "DID NOT reproduce"
        print(f"{doc['case_id']}: {verdict}")
        print(f"  expected: {', '.join(result.expected_kinds) or '(none)'}")
        print(f"  observed: {', '.join(doc['observed_mismatch_kinds']) or '(none)'}")
        print(f"  digest match: {result.expected_digest == result.report.digest}")
    return 0 if result.reproduced else 1


def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.errors import GremlinError
    from repro.fuzz import load_artifact, run_case, shrink, write_artifact
    from repro.fuzz.spec import FuzzCase

    try:
        data = load_artifact(args.artifact)
        case = FuzzCase.from_dict(data["case"])
    except (OSError, GremlinError, KeyError, ValueError) as exc:
        raise SystemExit(f"cannot load {args.artifact}: {exc}") from None
    report = run_case(case, app_registry=APPS)
    if not report.failed:
        print(f"{case.case_id}: passes the battery; nothing to shrink")
        return 1
    result = shrink(case, app_registry=APPS)
    out = args.out or args.artifact
    write_artifact(out, result.report, shrink_steps=result.steps)
    print(f"{case.case_id}: shrunk in {result.evaluations} evaluations")
    for step in result.steps:
        print(f"  {step}")
    print(f"minimized artifact written to {out}")
    return 0


def _per_app_path(path: str, app: str, multi: bool) -> str:
    """``report.html`` -> ``report.deepfanout.html`` when exploring
    several apps into one ``--*-out`` flag (one artifact per app)."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    return f"{stem}.{app}.{ext}" if dot else f"{path}.{app}"


def cmd_fuzz_explore(args: argparse.Namespace) -> int:
    from repro.apps.outages import SEEDED_BUG_SUITE
    from repro.explore import dump_recipe_suite, run_explore
    from repro.observability.cascade import build_explore_report

    if args.app != "all" and args.app not in SEEDED_BUG_SUITE:
        raise SystemExit(
            f"unknown seeded-bug app {args.app!r}; available:"
            f" {', '.join(sorted(SEEDED_BUG_SUITE))} (or 'all')"
        )
    apps = sorted(SEEDED_BUG_SUITE) if args.app == "all" else [args.app]
    multi = len(apps) > 1
    reports = []
    written: list[str] = []
    for app in apps:
        result = run_explore(
            app,
            budget=args.budget,
            seed=args.seed,
            strategy=args.strategy,
            workers=args.workers,
            backend=args.backend,
        )
        reports.append(result.report)
        if args.report_out:
            path = _per_app_path(args.report_out, app, multi)
            build_explore_report(result.report, result.space.graph).save(path)
            written.append(path)
        if args.recipes_out:
            path = _per_app_path(args.recipes_out, app, multi)
            dump_recipe_suite(result, path)
            written.append(path)
    doc = {
        "seed": args.seed,
        "budget": args.budget,
        "strategy": args.strategy,
        "all_bugs_found": all(report.all_bugs_found for report in reports),
        "apps": [report.to_dict() for report in reports],
    }
    if args.coverage_out:
        with open(args.coverage_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for report in reports:
            print(report.render())
        if args.coverage_out:
            print(f"coverage report written to {args.coverage_out}")
        for path in written:
            print(f"written: {path}")
    return 0 if doc["all_bugs_found"] else 1


# -- report subcommand ---------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    """Render the resilience report from a dumped campaign."""
    try:
        result = load_jsonl(args.dump)
    except (OSError, CampaignError) as exc:
        raise SystemExit(str(exc)) from None
    report = result.resilience_report()
    if args.out:
        report.save(args.out)
        print(f"resilience report written to {args.out}")
    else:
        print(report.to_json(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gremlin resilience testing (ICDCS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    apps_parser = sub.add_parser("apps", help="list prebuilt applications")
    apps_parser.add_argument(
        "--json", action="store_true", help="machine-readable catalog"
    )
    apps_parser.set_defaults(func=cmd_apps)

    graph_parser = sub.add_parser("graph", help="print an app's logical graph")
    graph_parser.add_argument("app")
    graph_parser.set_defaults(func=cmd_graph)

    recipes_parser = sub.add_parser("recipes", help="auto-generate recipes for an app")
    recipes_parser.add_argument("app")
    recipes_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    recipes_parser.set_defaults(func=cmd_recipes)

    test_parser = sub.add_parser("test", help="stage a scenario and run pattern checks")
    test_parser.add_argument("app")
    test_parser.add_argument("--target", required=True, help="service to fault")
    test_parser.add_argument("--scenario", choices=sorted(_SCENARIOS), default="overload")
    test_parser.add_argument("--entry", default=None, help="service to inject load into")
    test_parser.add_argument("--requests", type=int, default=20)
    test_parser.add_argument("--think", type=float, default=0.05)
    test_parser.add_argument("--seed", type=int, default=0)
    test_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    test_parser.set_defaults(func=cmd_test)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--target", default=None, help="service to fault (optional)")
        p.add_argument("--scenario", choices=sorted(_SCENARIOS), default="crash")
        p.add_argument("--entry", default=None, help="service to inject load into")
        p.add_argument("--requests", type=int, default=20)
        p.add_argument("--think", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)

    trace_parser = sub.add_parser(
        "trace", help="run a faulted load and render one request's causal tree"
    )
    trace_parser.add_argument("app")
    trace_parser.add_argument(
        "request_id",
        help="request to reconstruct (the closed-loop load mints test-1..test-N)",
    )
    add_run_args(trace_parser)
    trace_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    trace_parser.set_defaults(func=cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics", help="run a load and print the deployment metrics snapshot"
    )
    metrics_parser.add_argument("app")
    add_run_args(metrics_parser)
    metrics_parser.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="Prometheus text exposition (default) or JSON",
    )
    metrics_parser.set_defaults(func=cmd_metrics)

    campaign_parser = sub.add_parser(
        "campaign", help="plan and run whole auto-generated test campaigns"
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    def add_plan_args(p: argparse.ArgumentParser, max_recipes: _t.Optional[int]) -> None:
        p.add_argument("app")
        p.add_argument("--seed", type=int, default=0, help="campaign master seed")
        p.add_argument("--entry", default=None, help="service to inject load into")
        p.add_argument("--requests", type=int, default=20, help="test requests per recipe")
        p.add_argument("--think", type=float, default=0.05)
        p.add_argument(
            "--max-recipes", type=int, default=max_recipes, help="cap the plan size"
        )
        p.add_argument(
            "--criticality-high",
            action="store_true",
            help="treat every service as high criticality (adds crash/breaker recipes)",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_fleet_args(p: argparse.ArgumentParser, default_workers) -> None:
        p.add_argument(
            "--workers",
            type=_workers_arg,
            default=default_workers,
            help="parallel fleet size, or 'auto' for one worker per usable CPU",
        )
        p.add_argument(
            "--backend",
            choices=BACKENDS,
            default="threads",
            help="worker backend: threads (no serialization, overlaps paced"
            " jobs) or processes (spawn-isolated interpreters;"
            " parallelizes CPU-bound suites across cores)",
        )

    run_parser = campaign_sub.add_parser(
        "run", help="execute a full campaign and print the scorecard"
    )
    add_plan_args(run_parser, max_recipes=None)
    add_fleet_args(run_parser, default_workers="auto")
    run_parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-recipe wall-clock budget (s)"
    )
    run_parser.add_argument(
        "--pacing",
        type=float,
        default=0.0,
        help="minimum wall-clock seconds each recipe occupies its worker",
    )
    run_parser.add_argument(
        "--rerun",
        type=int,
        default=2,
        help="reseeded reruns per failed recipe (flake detection; 0 disables)",
    )
    run_parser.add_argument("--fail-fast", action="store_true")
    run_parser.add_argument("--out", default=None, help="dump result JSON-lines here")
    run_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the merged campaign metrics snapshot (JSON) here",
    )
    run_parser.add_argument(
        "--report-out",
        default=None,
        help="write the resilience report here (.json = deterministic"
        " JSON, anything else = standalone HTML)",
    )
    run_parser.add_argument(
        "--recipes",
        default=None,
        help="recipe suite JSON (from `fuzz explore --recipes-out`)"
        " added to the plan as extra recipes",
    )
    run_parser.set_defaults(func=cmd_campaign_run)

    smoke_parser = campaign_sub.add_parser(
        "smoke", help="capped fast campaign proving the fleet wiring"
    )
    add_plan_args(smoke_parser, max_recipes=6)
    add_fleet_args(smoke_parser, default_workers=2)
    smoke_parser.add_argument("--timeout", type=float, default=30.0)
    smoke_parser.add_argument(
        "--report-out",
        default=None,
        help="write the resilience report here (.json = JSON, else HTML)",
    )
    smoke_parser.set_defaults(func=cmd_campaign_smoke, requests=5)

    diff_parser = campaign_sub.add_parser(
        "diff", help="compare two dumped campaign results"
    )
    diff_parser.add_argument("baseline", help="JSON-lines dump of the baseline run")
    diff_parser.add_argument("candidate", help="JSON-lines dump of the candidate run")
    diff_parser.add_argument("--json", action="store_true", help="machine-readable output")
    diff_parser.set_defaults(func=cmd_campaign_diff)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing against the reference oracle"
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="generate and differentially execute a case corpus"
    )
    fuzz_run.add_argument("--seed", type=int, default=0, help="corpus master seed")
    fuzz_run.add_argument("--cases", type=int, default=100, help="corpus size")
    add_fleet_args(fuzz_run, default_workers="auto")
    fuzz_run.add_argument(
        "--artifacts",
        default=None,
        help="directory for minimized repro artifacts of failing cases",
    )
    fuzz_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing cases unminimized (faster triage runs)",
    )
    fuzz_run.add_argument("--json", action="store_true", help="machine-readable output")
    fuzz_run.set_defaults(func=cmd_fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-execute a repro artifact and confirm it reproduces"
    )
    fuzz_replay.add_argument("artifact", help="path to a fuzz repro artifact (JSON)")
    fuzz_replay.add_argument("--json", action="store_true", help="machine-readable output")
    fuzz_replay.set_defaults(func=cmd_fuzz_replay)

    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="minimize a repro artifact's case in place"
    )
    fuzz_shrink.add_argument("artifact", help="path to a fuzz repro artifact (JSON)")
    fuzz_shrink.add_argument(
        "--out", default=None, help="write the minimized artifact here instead"
    )
    fuzz_shrink.set_defaults(func=cmd_fuzz_shrink)

    fuzz_explore = fuzz_sub.add_parser(
        "explore",
        help="systematic fault-space exploration of a seeded-bug app",
    )
    fuzz_explore.add_argument(
        "app",
        help='seeded-bug app name (repro apps | "all" for the whole suite)',
    )
    fuzz_explore.add_argument(
        "--budget", type=int, default=150, help="fault-execution budget per app"
    )
    fuzz_explore.add_argument("--seed", type=int, default=0, help="deployment seed")
    fuzz_explore.add_argument(
        "--strategy",
        choices=("prioritized", "random", "whatif"),
        default="prioritized",
        help="candidate ordering: prioritized (learning frontier),"
        " random (unprioritized baseline), or whatif (static ranking"
        " by graph what-if simulation)",
    )
    fuzz_explore.add_argument(
        "--coverage-out", default=None, help="write the coverage report JSON here"
    )
    fuzz_explore.add_argument(
        "--report-out",
        default=None,
        help="write the resilience report here (.json = JSON, else HTML;"
        ' with app "all", one file per app)',
    )
    fuzz_explore.add_argument(
        "--recipes-out",
        default=None,
        help="export bug-finding coordinates as a campaign-loadable"
        ' recipe suite JSON (with app "all", one file per app)',
    )
    add_fleet_args(fuzz_explore, default_workers=1)
    fuzz_explore.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    fuzz_explore.set_defaults(func=cmd_fuzz_explore)

    report_parser = sub.add_parser(
        "report",
        help="render the resilience report from a dumped campaign",
    )
    report_parser.add_argument(
        "dump", help="JSON-lines campaign dump (from `campaign run --out`)"
    )
    report_parser.add_argument(
        "--out",
        default=None,
        help="write here (.json = deterministic JSON, anything else ="
        " standalone HTML); omitted = print JSON to stdout",
    )
    report_parser.set_defaults(func=cmd_report)
    return parser


def main(argv: _t.Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Analysis-layer failures (malformed dumps, impossible graph or
    report inputs) exit with a one-line message instead of a
    traceback — they describe operator input, not repro bugs.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AnalysisError as exc:
        raise SystemExit(f"analysis error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())

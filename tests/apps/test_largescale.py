"""Production-scale benchmark apps under the new scenario vocabulary.

Every new scenario primitive (RetryStorm, GrayFailure,
Misconfiguration, ResourceExhaustion) is proven by a pair: the check
that encodes the expected resilience property **conclusively fails**
on the naive build and **survives** on the hardened build of the same
topology under the same fault.  NoOpControl is the calibration pair:
it must pass on *both* builds while still installing real rules —
any check it trips is a false positive of the assertion suite.
"""

import pytest

from repro.apps import APPS, SEEDED_BUG_SUITE
from repro.apps.hotelreservation import (
    HOTELRESERVATION_SERVICES,
    build_hotelreservation_app,
)
from repro.apps.socialnetwork import SOCIALNETWORK_SERVICES, build_socialnetwork_app
from repro.core import Gremlin
from repro.core.patterns import HasBoundedRetries, HasTimeouts
from repro.core.scenarios import (
    GrayFailure,
    Misconfiguration,
    NoOpControl,
    ResourceExhaustion,
    RetryStorm,
)
from repro.loadgen import ClosedLoopLoad

REQUESTS = 8
THINK = 0.01

#: (app, scenario id) -> (builder, entry, scenario factory, checks
#: factory, name of the check that must conclusively fail on naive).
PAIRS = {
    ("socialnetwork", "retry_storm"): (
        build_socialnetwork_app,
        "nginx",
        lambda: RetryStorm("post-store"),
        lambda: [
            HasBoundedRetries(
                "post-storage", "post-store", max_tries=5, failure_status=None
            )
        ],
        "HasBoundedRetries(post-storage, post-store, 5)",
    ),
    ("socialnetwork", "gray_failure"): (
        build_socialnetwork_app,
        "nginx",
        lambda: GrayFailure("social-graph-store", interval="2s"),
        lambda: [HasTimeouts("social-graph", "1s")],
        "HasTimeouts(social-graph, 1s)",
    ),
    ("socialnetwork", "misconfiguration"): (
        build_socialnetwork_app,
        "nginx",
        lambda: Misconfiguration("user-store", mode="endpoint", error=404),
        # A 404 is not a transport failure, so the retry-bound trigger
        # keys on the misconfigured status itself.
        lambda: [
            HasBoundedRetries(
                "user-service", "user-store", max_tries=5, failure_status=404
            )
        ],
        "HasBoundedRetries(user-service, user-store, 5)",
    ),
    ("socialnetwork", "resource_exhaustion"): (
        build_socialnetwork_app,
        "nginx",
        lambda: ResourceExhaustion("media-store", interval="2s", shed_after=4),
        lambda: [HasTimeouts("media-service", "1s")],
        "HasTimeouts(media-service, 1s)",
    ),
    ("hotelreservation", "retry_storm"): (
        build_hotelreservation_app,
        "frontend",
        lambda: RetryStorm("rate-store"),
        lambda: [
            HasBoundedRetries("rate", "rate-store", max_tries=5, failure_status=None)
        ],
        "HasBoundedRetries(rate, rate-store, 5)",
    ),
    ("hotelreservation", "gray_failure"): (
        build_hotelreservation_app,
        "frontend",
        lambda: GrayFailure("reservation-store", interval="2s"),
        lambda: [HasTimeouts("reservation", "1s")],
        "HasTimeouts(reservation, 1s)",
    ),
    ("hotelreservation", "misconfiguration"): (
        build_hotelreservation_app,
        "frontend",
        lambda: Misconfiguration("auth-store", mode="endpoint", error=404),
        # A 404 is not a transport failure, so the retry-bound trigger
        # keys on the misconfigured status itself.
        lambda: [
            HasBoundedRetries("auth", "auth-store", max_tries=5, failure_status=404)
        ],
        "HasBoundedRetries(auth, auth-store, 5)",
    ),
    ("hotelreservation", "resource_exhaustion"): (
        build_hotelreservation_app,
        "frontend",
        lambda: ResourceExhaustion("profile-store", interval="2s", shed_after=4),
        lambda: [HasTimeouts("profile", "1s")],
        "HasTimeouts(profile, 1s)",
    ),
}

#: NoOpControl calibration targets: (builder, entry, scenario factory,
#: checks factory) — checks must stay green on BOTH builds.
CONTROLS = {
    "socialnetwork": (
        build_socialnetwork_app,
        "nginx",
        lambda: NoOpControl("post-store"),
        lambda: [
            HasBoundedRetries(
                "post-storage", "post-store", max_tries=5, failure_status=None
            ),
            HasTimeouts("social-graph", "1s"),
            HasTimeouts("media-service", "1s"),
        ],
    ),
    "hotelreservation": (
        build_hotelreservation_app,
        "frontend",
        lambda: NoOpControl("geo"),
        lambda: [
            HasBoundedRetries("rate", "rate-store", max_tries=5, failure_status=None),
            HasTimeouts("reservation", "1s"),
            HasTimeouts("profile", "1s"),
        ],
    ),
}


def run_scenario(builder, hardened, entry, scenario, checks):
    """Deploy one build, stage the scenario, drive the workload, and
    return ([(name, passed, inconclusive)], installed rules)."""
    deployment = builder(hardened=hardened).deploy(seed=0)
    source = deployment.add_traffic_source(entry, name="user")
    gremlin = Gremlin(deployment)
    rules = gremlin.translator.translate([scenario])
    gremlin.orchestrator.apply(rules)
    load = ClosedLoopLoad(num_requests=REQUESTS, think_time=THINK)
    deployment.sim.process(load.driver(source), name="largescale")
    deployment.sim.run()
    verdicts = [
        (result.name, result.passed, result.inconclusive)
        for result in (check.run(deployment.store) for check in checks)
    ]
    return verdicts, rules


@pytest.mark.parametrize("app,scenario_id", sorted(PAIRS))
class TestScenarioPairs:
    def test_naive_build_conclusively_fails(self, app, scenario_id):
        builder, entry, scenario, checks, failing = PAIRS[(app, scenario_id)]
        verdicts, rules = run_scenario(builder, False, entry, scenario(), checks())
        assert rules, "scenario decomposed to no rules"
        failed = {
            name for name, passed, inconclusive in verdicts
            if not passed and not inconclusive
        }
        assert failing in failed, verdicts

    def test_resilient_build_survives(self, app, scenario_id):
        builder, entry, scenario, checks, _failing = PAIRS[(app, scenario_id)]
        verdicts, rules = run_scenario(builder, True, entry, scenario(), checks())
        assert rules, "scenario decomposed to no rules"
        for name, passed, inconclusive in verdicts:
            assert passed or inconclusive, verdicts


@pytest.mark.parametrize("app", sorted(CONTROLS))
class TestNoOpControlCalibration:
    @pytest.mark.parametrize("hardened", [False, True])
    def test_control_passes_on_both_builds(self, app, hardened):
        builder, entry, scenario, checks = CONTROLS[app]
        verdicts, rules = run_scenario(builder, hardened, entry, scenario(), checks())
        # The machinery ran for real: rules decomposed and installed...
        assert rules
        # ...but with probability 0 nothing fired, so every check is as
        # green as a fault-free run.
        for name, passed, inconclusive in verdicts:
            assert passed or inconclusive, (app, hardened, verdicts)


class TestCatalog:
    def test_service_counts_are_production_scale(self):
        social = build_socialnetwork_app()
        hotel = build_hotelreservation_app()
        assert set(social.definitions) == set(SOCIALNETWORK_SERVICES)
        assert set(hotel.definitions) == set(HOTELRESERVATION_SERVICES)
        assert len(social.definitions) == 28
        assert len(hotel.definitions) == 20

    def test_apps_are_cli_reachable(self):
        assert "socialnetwork" in APPS
        assert "hotelreservation" in APPS

    def test_seeded_bug_apps_are_catalog_builders(self):
        for name, manifest in SEEDED_BUG_SUITE.items():
            assert name in APPS
            assert APPS[name] is manifest.builder

    def test_every_service_is_reachable_from_the_entry(self):
        for builder, entry in (
            (build_socialnetwork_app, "nginx"),
            (build_hotelreservation_app, "frontend"),
        ):
            app = builder()
            graph = app.logical_graph()
            seen = set()
            frontier = [entry]
            while frontier:
                service = frontier.pop()
                if service in seen:
                    continue
                seen.add(service)
                frontier.extend(graph.dependencies(service))
            assert seen == set(app.definitions)

    def test_hardened_flag_changes_policies_not_topology(self):
        for builder in (build_socialnetwork_app, build_hotelreservation_app):
            naive, hard = builder(hardened=False), builder(hardened=True)
            assert {
                (src, dst) for src, dst in naive.logical_graph().edges()
            } == {(src, dst) for src, dst in hard.logical_graph().edges()}

"""Seeded-resilience-bug fixtures: ground truth for ``fuzz explore``.

Each app must (1) pass its manifest checks fault-free, (2) fail the
bug's evidencing check under the documented trigger fault, and
(3) pass the same trigger once hardened — proving the planted bug, not
the workload, is what the checks detect.
"""

import pytest

from repro.apps import (
    SEEDED_BUG_SUITE,
    build_deepfanout_app,
    build_retrystorm_app,
    build_stuckbreaker_app,
)
from repro.apps.hotelreservation import build_hotelreservation_app
from repro.apps.socialnetwork import build_socialnetwork_app
from repro.core.scenarios import AbortCalls, DelayCalls
from repro.core import Gremlin
from repro.loadgen import ClosedLoopLoad

BUILDERS = {
    "deepfanout": build_deepfanout_app,
    "retrystorm": build_retrystorm_app,
    "stuckbreaker": build_stuckbreaker_app,
    "socialnetwork": build_socialnetwork_app,
    "hotelreservation": build_hotelreservation_app,
}


def run_checks(manifest, application, scenario=None, seed=0):
    """Deploy, optionally stage a fault, drive the workload, and return
    the (name, passed, inconclusive) verdict list."""
    deployment = application.deploy(seed=seed)
    source = deployment.add_traffic_source(manifest.entry, name="user")
    gremlin = Gremlin(deployment)
    if scenario is not None:
        rules = gremlin.translator.translate([scenario])
        gremlin.orchestrator.apply(rules)
    load = ClosedLoopLoad(
        num_requests=manifest.requests, think_time=manifest.think_time
    )
    deployment.sim.process(load.driver(source), name="seeded")
    deployment.sim.run()
    return [
        (result.name, result.passed, result.inconclusive)
        for result in (check.run(deployment.store) for check in manifest.checks())
    ]


def trigger_scenario(manifest, bug):
    src, dst = bug.trigger_edge
    if bug.trigger_fault == "delay":
        return DelayCalls(src, dst, interval=manifest.delay_interval)
    return AbortCalls(src, dst, error=503)


@pytest.mark.parametrize("name", sorted(SEEDED_BUG_SUITE))
class TestSeededBugMatrix:
    def test_fault_free_run_is_clean(self, name):
        manifest = SEEDED_BUG_SUITE[name]
        verdicts = run_checks(manifest, manifest.builder())
        for check_name, passed, inconclusive in verdicts:
            assert passed or inconclusive, (name, check_name)
        assert not manifest.bugs_found(verdicts)

    def test_trigger_fault_surfaces_every_planted_bug(self, name):
        manifest = SEEDED_BUG_SUITE[name]
        for bug in manifest.bugs:
            verdicts = run_checks(
                manifest, manifest.builder(), trigger_scenario(manifest, bug)
            )
            assert bug.bug_id in manifest.bugs_found(verdicts), verdicts

    def test_hardened_variant_survives_the_trigger(self, name):
        manifest = SEEDED_BUG_SUITE[name]
        for bug in manifest.bugs:
            verdicts = run_checks(
                manifest,
                BUILDERS[name](hardened=True),
                trigger_scenario(manifest, bug),
            )
            assert bug.bug_id not in manifest.bugs_found(verdicts), verdicts


class TestManifestContracts:
    def test_registry_is_consistent(self):
        assert set(SEEDED_BUG_SUITE) == set(BUILDERS)
        for name, manifest in SEEDED_BUG_SUITE.items():
            assert manifest.name == name
            assert manifest.bugs, name
            check_names = set(_check_names(manifest))
            for bug in manifest.bugs:
                assert set(bug.check_names) & check_names, (
                    f"{bug.bug_id} references no existing check"
                )

    def test_checks_factory_returns_fresh_instances(self):
        for manifest in SEEDED_BUG_SUITE.values():
            first, second = manifest.checks(), manifest.checks()
            assert first is not second
            assert [c.name for c in first] == [c.name for c in second]

    def test_bugs_found_requires_conclusive_failure(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        (bug,) = manifest.bugs
        evidencing = bug.check_names[0]
        assert not manifest.bugs_found([(evidencing, False, True)])
        assert not manifest.bugs_found([(evidencing, True, False)])
        assert manifest.bugs_found([(evidencing, False, False)]) == {bug.bug_id}


def _check_names(manifest):
    return [check.name for check in manifest.checks()]

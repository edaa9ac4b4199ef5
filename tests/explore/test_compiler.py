"""Coordinate compilation: exact targeting, recipes, replay fidelity."""

import pytest

from repro.agent.rules import fresh_rule_ids
from repro.apps.outages import SEEDED_BUG_SUITE
from repro.core.gremlin import Gremlin
from repro.core.recipe import Recipe
from repro.errors import ExploreError
from repro.explore import compile_scenarios, coordinate_recipe, discover_space
from repro.fuzz.spec import SOURCE_NAME
from repro.loadgen import ClosedLoopLoad


def run_with_coordinate(coordinate, manifest):
    """Deploy the app, install the coordinate's rules, run the manifest
    workload, and return the deployment (store still attached)."""
    deployment = manifest.builder().deploy(seed=0)
    source = deployment.add_traffic_source(manifest.entry, name=SOURCE_NAME)
    gremlin = Gremlin(deployment)
    scenarios = compile_scenarios(coordinate, manifest)
    with fresh_rule_ids():
        rules = gremlin.translator.translate(scenarios)
    gremlin.orchestrator.apply(rules)
    load = ClosedLoopLoad(
        num_requests=manifest.requests, think_time=manifest.think_time
    )
    deployment.sim.process(load.driver(source), name="test")
    deployment.sim.run()
    return deployment


class TestSingleTargeting:
    def test_single_coordinate_faults_exactly_one_call(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        space = discover_space("deepfanout", seed=0)
        coordinate = next(
            c for c in space.singles
            if c.edge == ("catalog", "pricing") and c.fault == "abort"
        )
        deployment = run_with_coordinate(coordinate, manifest)
        faulted = [
            r for r in deployment.store.all_records()
            if r.fault_applied and r.kind == "request"
        ]
        assert len(faulted) == 1
        (record,) = faulted
        assert (record.src, record.dst) == ("catalog", "pricing")
        assert record.request_id == coordinate.request_id == "test-1"

    def test_single_spec_encodes_ordinal_as_skip_matches(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        space = discover_space("deepfanout", seed=0)
        coordinate = space.singles[0]
        (scenario,) = compile_scenarios(coordinate, manifest)
        assert scenario.max_matches == 1
        assert scenario.skip_matches == coordinate.ordinal
        assert scenario.pattern == "test-1"
        assert scenario.probability == 1.0


class TestSweepCompilation:
    def test_sweep_faults_every_test_request(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        space = discover_space("deepfanout", seed=0)
        coordinate = next(
            c for c in space.sweeps
            if c.edge == ("gateway", "search") and c.fault == "abort"
        )
        deployment = run_with_coordinate(coordinate, manifest)
        faulted = {
            r.request_id
            for r in deployment.store.all_records()
            if r.fault_applied and r.kind == "request"
        }
        assert len(faulted) == manifest.requests

    def test_sweep_spec_is_persistent(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        space = discover_space("deepfanout", seed=0)
        (scenario,) = compile_scenarios(space.sweeps[0], manifest)
        assert scenario.max_matches is None
        assert scenario.skip_matches == 0
        assert scenario.pattern == "test-*"


class TestRecipeAndErrors:
    def test_coordinate_recipe_is_a_real_recipe(self):
        manifest = SEEDED_BUG_SUITE["stuckbreaker"]
        space = discover_space("stuckbreaker", seed=0)
        recipe = coordinate_recipe(space.sweeps[0], manifest)
        assert isinstance(recipe, Recipe)
        assert recipe.name.startswith("explore/stuckbreaker/")
        assert recipe.scenarios and recipe.checks

    def test_delay_primitive_compiles_to_delay_scenario(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        space = discover_space("deepfanout", seed=0)
        coordinate = next(c for c in space.sweeps if c.fault == "delay")
        (scenario,) = compile_scenarios(coordinate, manifest)
        assert type(scenario).__name__ == "DelayCalls"
        assert scenario.interval == manifest.delay_interval

    def test_app_mismatch_raises(self):
        space = discover_space("deepfanout", seed=0)
        with pytest.raises(ExploreError):
            compile_scenarios(space.sweeps[0], SEEDED_BUG_SUITE["retrystorm"])

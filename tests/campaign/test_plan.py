"""Tests for campaign planning: dedup, ordering, seeding."""

import pytest

from repro.apps import build_enterprise_app, build_tree_app, build_wordpress_app
from repro.campaign import (
    derive_seed,
    plan_campaign,
    recipe_signature,
    scenario_target,
)
from repro.core import Crash, Disconnect, EdgeAnnotation, Hang, NetworkPartition, Overload, Recipe
from repro.errors import CampaignError


class TestScenarioTarget:
    def test_service_scoped(self):
        assert scenario_target(Crash("db")) == "db"
        assert scenario_target(Hang("db")) == "db"
        assert scenario_target(Overload("db")) == "db"

    def test_edge_scoped(self):
        assert scenario_target(Disconnect("a", "b")) == "b"

    def test_cut_scoped_has_no_single_target(self):
        assert scenario_target(NetworkPartition(["a"], ["b"])) == "*"


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "auto/crash-db") == derive_seed(42, "auto/crash-db")

    def test_independent_per_recipe_and_attempt(self):
        seeds = {
            derive_seed(42, "auto/crash-db"),
            derive_seed(42, "auto/crash-db", attempt=1),
            derive_seed(42, "auto/hang-db"),
            derive_seed(43, "auto/crash-db"),
        }
        assert len(seeds) == 4


class TestPlanCampaign:
    def test_expands_autogen(self):
        plan = plan_campaign(lambda: build_tree_app(3), seed=7)
        assert len(plan) == 42
        assert {entry.pattern for entry in plan} == {"overload", "hang", "degrade"}
        # Indexes are stable plan positions.
        assert [entry.index for entry in plan] == list(range(42))

    def test_seeds_derive_from_campaign_seed_and_name(self):
        plan = plan_campaign(lambda: build_wordpress_app(), seed=5)
        for entry in plan:
            assert entry.seed == derive_seed(5, entry.name)

    def test_entry_defaults_to_graph_entry_service(self):
        plan = plan_campaign(lambda: build_wordpress_app())
        assert all(entry.load.entry == "wordpress" for entry in plan)

    def test_unknown_entry_rejected(self):
        with pytest.raises(CampaignError, match="unknown entry"):
            plan_campaign(lambda: build_wordpress_app(), entry="ghost")

    def test_operator_recipes_take_precedence_over_autogen(self):
        app = build_wordpress_app
        auto = plan_campaign(lambda: app())
        duplicate_of_auto = next(
            entry.recipe for entry in auto if entry.pattern == "overload"
        )
        mine = Recipe(
            name="mine/overload",
            scenarios=list(duplicate_of_auto.scenarios),
            checks=list(duplicate_of_auto.checks),
        )
        plan = plan_campaign(lambda: app(), extra_recipes=[mine])
        names = [entry.name for entry in plan]
        assert "mine/overload" in names
        assert duplicate_of_auto.name not in names
        assert plan.deduplicated == 1

    def test_duplicate_names_rejected(self):
        recipe = Recipe(name="auto/overload-mysql", scenarios=[Overload("mysql")])
        with pytest.raises(CampaignError, match="duplicate recipe name"):
            plan_campaign(lambda: build_wordpress_app(), extra_recipes=[recipe])

    def test_unknown_fault_target_rejected(self):
        recipe = Recipe(name="x", scenarios=[Crash("ghost")])
        with pytest.raises(CampaignError, match="unknown service 'ghost'"):
            plan_campaign(lambda: build_wordpress_app(), extra_recipes=[recipe])

    def test_high_criticality_targets_run_first(self):
        annotations = {"servicedb": EdgeAnnotation(criticality="high")}
        plan = plan_campaign(lambda: build_enterprise_app(), annotations=annotations)
        first_services = {entry.service for entry in plan.entries[:3]}
        assert first_services == {"servicedb"}
        # The crash/breaker probe exists and precedes slow-failure probes.
        assert plan.entries[0].pattern == "crash"

    def test_limit_keeps_priority_prefix(self):
        plan = plan_campaign(lambda: build_tree_app(3))
        capped = plan.limit(5)
        assert len(capped) == 5
        assert [e.name for e in capped] == [e.name for e in plan.entries[:5]]
        with pytest.raises(CampaignError):
            plan.limit(0)

    @pytest.mark.parametrize(
        "load, message",
        [({"requests": 0}, "requests must be >= 1"), ({"think_time": -0.1}, "think_time")],
    )
    def test_bad_load_rejected_at_plan_time(self, load, message):
        with pytest.raises(CampaignError, match=message):
            plan_campaign(lambda: build_wordpress_app(), **load)

    def test_summary_mentions_counts(self):
        plan = plan_campaign(lambda: build_tree_app(2), seed=3)
        text = plan.summary()
        assert "seed=3" in text
        assert "overload=" in text


class TestRecipeSignature:
    def test_order_insensitive(self):
        a = Recipe(name="a", scenarios=[Crash("x"), Hang("x")])
        b = Recipe(name="b", scenarios=[Hang("x"), Crash("x")])
        assert recipe_signature(a) == recipe_signature(b)

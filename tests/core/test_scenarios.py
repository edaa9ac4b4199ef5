"""Unit tests for scenario decomposition (paper Section 5 recipes)."""

import pathlib

import pytest

from repro.agent import FaultType, TCP_RESET
from repro.core import (
    AbortCalls,
    Crash,
    Degrade,
    DelayCalls,
    Disconnect,
    FailureScenario,
    FakeSuccess,
    GrayFailure,
    Hang,
    Misconfiguration,
    ModifyReplies,
    NetworkPartition,
    NoOpControl,
    Overload,
    ResourceExhaustion,
    RetryStorm,
)
from repro.core import scenarios as scenarios_module
from repro.core.scenarios import SCENARIO_KINDS
from repro.errors import RecipeError
from repro.microservice import ApplicationGraph


@pytest.fixture
def graph():
    # publishers -> messagebus -> cassandra; dashboard -> cassandra
    return ApplicationGraph.from_edges(
        [
            ("publisher", "messagebus"),
            ("messagebus", "cassandra"),
            ("dashboard", "cassandra"),
        ]
    )


class TestPrimitiveScenarios:
    def test_abort_calls(self, graph):
        rules = AbortCalls("messagebus", "cassandra", error=503).decompose(graph)
        assert len(rules) == 1
        assert rules[0].fault_type == FaultType.ABORT
        assert (rules[0].src, rules[0].dst) == ("messagebus", "cassandra")

    def test_delay_calls_accepts_duration_strings(self, graph):
        rules = DelayCalls("messagebus", "cassandra", interval="250ms").decompose(graph)
        assert rules[0].interval == pytest.approx(0.25)

    def test_modify_replies(self, graph):
        rules = ModifyReplies("messagebus", "cassandra", "key", "badkey").decompose(graph)
        assert rules[0].fault_type == FaultType.MODIFY
        assert rules[0].on == "response"

    def test_unknown_service_fails_fast(self, graph):
        with pytest.raises(RecipeError):
            AbortCalls("ghost", "cassandra").decompose(graph)


class TestDisconnect:
    def test_single_edge_abort(self, graph):
        rules = Disconnect("messagebus", "cassandra").decompose(graph)
        assert len(rules) == 1
        assert rules[0].error == 503
        assert rules[0].probability == 1.0


class TestCrash:
    def test_resets_from_all_dependents(self, graph):
        rules = Crash("cassandra").decompose(graph)
        assert {rule.src for rule in rules} == {"messagebus", "dashboard"}
        assert all(rule.error == TCP_RESET for rule in rules)
        assert all(rule.probability == 1.0 for rule in rules)

    def test_transient_crash_via_probability(self, graph):
        rules = Crash("cassandra", probability=0.3).decompose(graph)
        assert all(rule.probability == 0.3 for rule in rules)

    def test_crash_without_dependents_rejected(self, graph):
        with pytest.raises(RecipeError, match="dependents"):
            Crash("publisher").decompose(graph)


class TestHangAndDegrade:
    def test_hang_uses_long_delay(self, graph):
        rules = Hang("cassandra").decompose(graph)
        assert all(rule.fault_type == FaultType.DELAY for rule in rules)
        assert all(rule.interval == 3600.0 for rule in rules)

    def test_degrade_is_delay_only(self, graph):
        rules = Degrade("cassandra", interval="2s").decompose(graph)
        assert all(rule.fault_type == FaultType.DELAY for rule in rules)
        assert all(rule.interval == 2.0 for rule in rules)


class TestOverload:
    def test_decomposes_to_abort_then_delay(self, graph):
        rules = Overload("cassandra").decompose(graph)
        by_src = {}
        for rule in rules:
            by_src.setdefault(rule.src, []).append(rule)
        for src, src_rules in by_src.items():
            assert [r.fault_type for r in src_rules] == [FaultType.ABORT, FaultType.DELAY]
            assert src_rules[0].probability == 0.25
            assert src_rules[1].probability == 1.0  # disjoint 25/75 split
            assert src_rules[1].interval == pytest.approx(0.1)

    def test_pure_abort_overload(self, graph):
        rules = Overload("cassandra", abort_fraction=1.0).decompose(graph)
        assert all(rule.fault_type == FaultType.ABORT for rule in rules)

    def test_pure_delay_overload(self, graph):
        rules = Overload("cassandra", abort_fraction=0.0).decompose(graph)
        assert all(rule.fault_type == FaultType.DELAY for rule in rules)

    def test_fraction_validated(self):
        with pytest.raises(RecipeError):
            Overload("x", abort_fraction=1.5)


class TestNetworkPartition:
    def test_cut_edges_get_resets(self, graph):
        rules = NetworkPartition(
            ["publisher", "messagebus", "dashboard"], ["cassandra"]
        ).decompose(graph)
        pairs = {(rule.src, rule.dst) for rule in rules}
        assert pairs == {("messagebus", "cassandra"), ("dashboard", "cassandra")}
        assert all(rule.error == TCP_RESET for rule in rules)

    def test_empty_cut_rejected(self, graph):
        with pytest.raises(RecipeError, match="no edges"):
            NetworkPartition(["publisher"], ["dashboard"]).decompose(graph)


class TestFakeSuccess:
    def test_modify_rules_toward_all_dependents(self, graph):
        rules = FakeSuccess("cassandra", pattern="key", replace_bytes="badkey").decompose(graph)
        assert {rule.src for rule in rules} == {"messagebus", "dashboard"}
        assert all(rule.fault_type == FaultType.MODIFY for rule in rules)
        assert all(rule.on == "response" for rule in rules)

    def test_describe_strings(self, graph):
        for scenario in (
            Crash("cassandra"),
            Overload("cassandra"),
            Hang("cassandra"),
            Disconnect("messagebus", "cassandra"),
            FakeSuccess("cassandra"),
        ):
            assert scenario.kind in scenario.describe() or "(" in scenario.describe()


class TestKindTable:
    def test_every_scenario_class_has_a_kind_entry(self):
        classes = {
            obj
            for obj in vars(scenarios_module).values()
            if isinstance(obj, type)
            and issubclass(obj, FailureScenario)
            and not obj.__name__.startswith("_")
            and obj is not FailureScenario
        }
        assert classes == set(SCENARIO_KINDS.values())
        assert all(SCENARIO_KINDS[cls.kind] is cls for cls in classes)

    def test_every_kind_is_in_the_recipes_table(self):
        """docs/RECIPES.md section 2 lists every scenario kind."""
        doc = (pathlib.Path(__file__).parents[2] / "docs" / "RECIPES.md").read_text()
        section = doc.split("## 2.", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        named = {row[len("| `"):].split("(", 1)[0] for row in rows}
        kinds = {cls.__name__ for cls in SCENARIO_KINDS.values()}
        assert sorted(kinds - named) == []


class TestDrawFields:
    """``draws`` is True exactly when a decomposed rule takes a
    fractional probability draw, for every kind."""

    @pytest.mark.parametrize(
        "scenario",
        [
            AbortCalls("messagebus", "cassandra", probability=0.5),
            DelayCalls("messagebus", "cassandra", "1s", probability=0.5),
            Crash("cassandra", probability=0.3),
            Overload("cassandra", abort_fraction=0.5),
            Overload("cassandra", abort_fraction=0.25),
            RetryStorm("cassandra", probability=0.5),
            GrayFailure("cassandra", slow_fraction=0.5),
            AbortCalls("messagebus", "cassandra"),
            Crash("cassandra", probability=0.0),
            Overload("cassandra", abort_fraction=1.0),
            Overload("cassandra", abort_fraction=0.0),
            GrayFailure("cassandra"),
            ModifyReplies("messagebus", "cassandra", "a", "b"),
            Disconnect("messagebus", "cassandra"),
            Hang("cassandra"),
            Degrade("cassandra"),
            NetworkPartition(["publisher"], ["messagebus"]),
            FakeSuccess("cassandra"),
            Misconfiguration("cassandra"),
            ResourceExhaustion("cassandra"),
            NoOpControl("cassandra"),
        ],
    )
    def test_draws_matches_the_rules(self, graph, scenario):
        rules = scenario.decompose(graph)
        assert scenario.draws == any(0.0 < rule.probability < 1.0 for rule in rules)

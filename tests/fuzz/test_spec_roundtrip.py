"""Round-trip coverage for the fuzz spec layer (satellite: recipe
serialization).

A fuzz case must survive ``to_dict -> json -> from_dict`` with nothing
lost: the rebuilt case compares equal, and — the contract repro
artifacts rely on — its ``recipe()`` compares equal to the original's,
which exercises the ``__eq__``/normalization added to ``Recipe``,
``FailureScenario``, and ``PatternCheck``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.rules import fresh_rule_ids
from repro.core.recipe import Recipe
from repro.core.scenarios import (
    SCENARIO_KINDS,
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
    Overload,
    ResourceExhaustion,
    RetryStorm,
)
from repro.fuzz import (
    CHECK_KINDS,
    EdgeCountCheck,
    EdgeStatusCheck,
    FuzzCase,
    FuzzGenerator,
    TopologySpec,
    WorkloadSpec,
    build_check,
    build_scenario,
    check_to_spec,
    scenario_to_spec,
)


def small_case():
    topology = TopologySpec(
        kind="dag",
        services=["a", "b", "c"],
        edges=[("a", "b"), ("a", "c")],
        entry="a",
        partial_ok=["a"],
    )
    return FuzzCase(
        case_id="rt-1",
        seed=7,
        topology=topology,
        scenarios=[
            scenario_to_spec(AbortCalls("a", "b", error=503)),
            scenario_to_spec(ModifyReplies("a", "c", "ok", "KO")),
        ],
        checks=[
            check_to_spec(EdgeStatusCheck("a", "b", 503)),
            check_to_spec(EdgeCountCheck("a", "c", ">=", 1)),
        ],
        workload=WorkloadSpec(requests=3, think_time=0.01),
    )


def decomposed(scenario, graph):
    with fresh_rule_ids():
        return scenario.decompose(graph)


class TestScenarioCodec:
    def test_round_trips_every_kind(self):
        scenarios = [
            AbortCalls("a", "b", error=500, on="request", probability=0.5, max_matches=2),
            DelayCalls("a", "b", "250ms", pattern="test-1"),
            ModifyReplies("a", "b", "ok", "KO", id_pattern="test-*"),
            Disconnect("a", "b", error=502),
            Crash("b", probability=0.0),
            Hang("b", interval="2s"),
            Overload("b", abort_fraction=0.5, interval="50ms"),
            Degrade("b", interval="1s"),
            NetworkPartition(["a"], ["b", "c"]),
            FakeSuccess("b", pattern="ok", replace_bytes="bad"),
            RetryStorm("b", error=502, probability=0.5),
            GrayFailure("b", interval="300ms", slow_fraction=0.25),
            Misconfiguration("b", mode="reply", replace_bytes="XX"),
            Misconfiguration("b", mode="endpoint", error=410),
            ResourceExhaustion("b", interval="75ms", shed_after=3, error=429),
            NoOpControl("b", pattern="test-2"),
        ]
        assert {s.kind for s in scenarios} == set(SCENARIO_KINDS)
        graph = small_case().topology.logical_graph()
        for scenario in scenarios:
            spec = scenario_to_spec(scenario)
            rebuilt = build_scenario(json.loads(json.dumps(spec)))
            assert rebuilt == scenario, spec["kind"]
            assert rebuilt.describe() == scenario.describe(), spec["kind"]
            assert decomposed(rebuilt, graph) == decomposed(scenario, graph), spec["kind"]

    def test_equality_is_type_strict(self):
        abort = AbortCalls("a", "b", error=503)
        delay = DelayCalls("a", "b", "1s")
        assert abort != delay
        assert abort == AbortCalls("a", "b", error=503)
        assert abort != AbortCalls("a", "b", error=500)
        assert hash(abort) == hash(AbortCalls("a", "b", error=503))


class TestCheckCodec:
    def test_round_trips_both_kinds(self):
        checks = [
            EdgeStatusCheck("a", "b", 503, num_match=2, with_rule=False),
            EdgeCountCheck("a", "b", "==", 0, id_pattern="test-1"),
        ]
        assert {c.name for c in checks} == set(CHECK_KINDS)
        for check in checks:
            spec = check_to_spec(check)
            rebuilt = build_check(json.loads(json.dumps(spec)))
            assert rebuilt == check


class TestCaseRoundTrip:
    def test_case_survives_json(self):
        case = small_case()
        rebuilt = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert rebuilt == case
        assert rebuilt.to_dict() == case.to_dict()

    def test_recipe_equality_after_round_trip(self):
        case = small_case()
        rebuilt = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert rebuilt.recipe() == case.recipe()

    def test_recipe_normalizes_list_vs_tuple(self):
        scenarios = [AbortCalls("a", "b", error=503)]
        checks = [EdgeStatusCheck("a", "b", 503)]
        assert Recipe("r", scenarios, checks) == Recipe("r", tuple(scenarios), tuple(checks))

    def test_topology_round_trip_preserves_edge_order(self):
        topology = small_case().topology
        rebuilt = TopologySpec.from_dict(json.loads(json.dumps(topology.to_dict())))
        assert rebuilt == topology
        assert rebuilt.children("a") == ["b", "c"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), index=st.integers(0, 40))
    def test_generated_cases_round_trip(self, seed, index):
        case = FuzzGenerator(seed).case(index)
        rebuilt = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert rebuilt == case
        assert rebuilt.recipe() == case.recipe()
        assert rebuilt.oracle_eligible == case.oracle_eligible


class TestEligibility:
    def test_fractional_probability_excludes_oracle(self):
        case = small_case()
        case.scenarios.append(
            scenario_to_spec(AbortCalls("a", "b", error=503, probability=0.5))
        )
        assert not case.deterministic
        assert not case.oracle_eligible

    @pytest.mark.parametrize(
        "scenario",
        [
            Crash("b", probability=0.5),
            Overload("b", abort_fraction=0.5),
            GrayFailure("b", slow_fraction=0.25),
            RetryStorm("b", probability=0.9),
        ],
        ids=lambda scenario: scenario.kind,
    )
    def test_every_draw_field_reaches_eligibility(self, scenario):
        case = small_case()
        case.scenarios.append(scenario_to_spec(scenario))
        assert not case.deterministic
        assert not case.oracle_eligible

    def test_zero_and_one_probability_stay_deterministic(self):
        case = small_case()
        case.scenarios.append(
            scenario_to_spec(AbortCalls("a", "b", error=503, probability=0.0))
        )
        assert case.deterministic and case.oracle_eligible

    def test_app_topology_excludes_oracle(self):
        case = small_case()
        case.topology = TopologySpec(kind="app", entry="ServiceA", app="twotier")
        assert not case.oracle_eligible

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            build_scenario({"kind": "nope", "params": {}})
        with pytest.raises(Exception):
            build_check({"kind": "nope", "params": {}})

"""What-if cascade simulation: the model and the orderings it drives."""

import dataclasses

import pytest

from repro.errors import AnalysisError
from repro.observability.cascade.graph import DependencyGraph
from repro.observability.cascade.whatif import (
    ABORT_DAMAGE,
    DELAY_DAMAGE_CAP,
    RESET_DAMAGE,
    RETRY_AMPLIFICATION,
    order_candidates,
    predict_service_blast,
    simulate_fault,
)


def chain_graph():
    """source -> a -> b -> c with 10 calls per edge."""
    graph = DependencyGraph()
    for src, dst in [("source", "a"), ("a", "b"), ("b", "c")]:
        graph.edge(src, dst).calls = 10
    return graph


@dataclasses.dataclass(frozen=True)
class FakeCoordinate:
    """Coordinate-shaped stand-in (mode/src/dst/fault duck type)."""

    mode: str
    src: str
    dst: str
    fault: str


class TestSimulateFault:
    def test_delay_blast_is_upstream_cone(self):
        prediction = simulate_fault(chain_graph(), "b", "c", "delay", interval=2.0)
        assert prediction.impacted == ("a", "b", "source")
        assert prediction.entry_latency_inflation == 2.0
        assert prediction.entry_error_fraction == 0.0
        assert prediction.damage == 2.0
        assert prediction.score == 3 + 2.0

    def test_delay_damage_is_capped(self):
        prediction = simulate_fault(chain_graph(), "b", "c", "delay", interval=99.0)
        assert prediction.damage == DELAY_DAMAGE_CAP

    def test_negative_interval_is_loud(self):
        with pytest.raises(AnalysisError):
            simulate_fault(chain_graph(), "b", "c", "delay", interval=-1.0)

    def test_abort_uses_default_retry_multiplier(self):
        prediction = simulate_fault(chain_graph(), "b", "c", "abort")
        assert prediction.entry_error_fraction == 1.0
        assert prediction.damage == ABORT_DAMAGE * RETRY_AMPLIFICATION
        assert prediction.amplified_calls == 10 * RETRY_AMPLIFICATION

    def test_observed_retries_override_default(self):
        graph = chain_graph()
        graph.edges[("b", "c")].retries = 5.0  # 1 + 5/10 = 1.5x
        prediction = simulate_fault(graph, "b", "c", "abort")
        assert prediction.damage == ABORT_DAMAGE * 1.5
        assert prediction.amplified_calls == 15.0

    def test_reset_is_discounted_below_abort(self):
        abort = simulate_fault(chain_graph(), "b", "c", "abort")
        reset = simulate_fault(chain_graph(), "b", "c", "reset")
        assert reset.damage == RESET_DAMAGE * RETRY_AMPLIFICATION
        assert reset.damage < abort.damage
        assert reset.impacted == abort.impacted

    def test_to_dict_renders_edge(self):
        doc = simulate_fault(chain_graph(), "a", "b", "abort").to_dict()
        assert doc["edge"] == "a -> b"
        assert doc["impacted"] == ["a", "source"]


class TestPredictServiceBlast:
    def test_worst_case_incoming_abort(self):
        doc = predict_service_blast(chain_graph(), "b")
        assert doc["impacted"] == ["a", "source"]
        assert doc["blast_size"] == 2
        assert doc["amplified_calls"] == 10 * RETRY_AMPLIFICATION

    def test_cycle_leaves_the_service_out_of_its_own_blast(self):
        """source -> a <-> b: b calls a back, so both reach each other,
        but a service is never in its own upstream cone."""
        graph = DependencyGraph()
        for src, dst, calls in [("source", "a", 10), ("a", "b", 4), ("b", "a", 3)]:
            graph.edge(src, dst).calls = calls
        graph.edges[("b", "a")].retries = 3.0  # 1 + 3/3 = 2x
        doc = predict_service_blast(graph, "a")
        assert doc["impacted"] == ["b", "source"]
        assert doc["blast_size"] == 2
        # Callers b then source: 3 * 2.0 + 10 * RETRY_AMPLIFICATION.
        assert doc["amplified_calls"] == 3 * 2.0 + 10 * RETRY_AMPLIFICATION
        assert predict_service_blast(graph, "b")["impacted"] == ["a", "source"]


class TestOrderCandidates:
    def test_deeper_injection_ranks_first(self):
        graph = chain_graph()
        shallow = FakeCoordinate("sweep", "a", "b", "abort")
        deep = FakeCoordinate("sweep", "b", "c", "abort")
        assert order_candidates([shallow, deep], graph) == [deep, shallow]

    def test_damage_breaks_equal_blast_ties(self):
        graph = chain_graph()
        big_delay = FakeCoordinate("sweep", "b", "c", "delay")
        short_delay = FakeCoordinate("sweep", "b", "c", "delay_short")
        ordered = order_candidates(
            [short_delay, big_delay], graph,
            intervals={"delay": 2.0, "delay_short": 0.05},
        )
        assert ordered == [big_delay, short_delay]

    def test_single_mode_is_scaled_down_by_workload(self):
        graph = chain_graph()
        single = FakeCoordinate("single", "b", "c", "abort")
        sweep_shallow = FakeCoordinate("sweep", "a", "b", "abort")
        # At requests=1 the transient single outranks the shallower
        # sweep; across a 40-request workload it is 1/40th as damaging.
        assert order_candidates([sweep_shallow, single], graph, requests=1) == [
            single, sweep_shallow,
        ]
        assert order_candidates([sweep_shallow, single], graph, requests=40) == [
            sweep_shallow, single,
        ]

    def test_subtree_weight_breaks_remaining_ties(self):
        graph = DependencyGraph()
        for src, dst in [
            ("source", "a"), ("a", "leaf"), ("a", "mid"), ("mid", "deep"),
        ]:
            graph.edge(src, dst).calls = 10
        to_leaf = FakeCoordinate("sweep", "a", "leaf", "abort")
        to_mid = FakeCoordinate("sweep", "a", "mid", "abort")
        # Same src => same blast, same fault => same damage; the edge
        # with more structure underneath (mid -> deep) goes first.
        assert order_candidates([to_leaf, to_mid], graph) == [to_mid, to_leaf]

    def test_enumeration_order_is_the_final_tie_break(self):
        graph = chain_graph()
        first = FakeCoordinate("sweep", "b", "c", "abort")
        second = FakeCoordinate("single", "b", "c", "abort")
        assert order_candidates([first, second], graph, requests=1) == [
            first, second,
        ]

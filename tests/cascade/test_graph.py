"""Unit tests for dependency-graph discovery and its parsers."""

import json

import pytest

from repro.errors import AnalysisError
from repro.observability.cascade.graph import (
    DependencyGraph,
    EdgeStats,
    discover_graph,
    graph_from_campaign,
    histogram_quantile,
    hop_degraded,
    parse_propagation_hop,
    parse_series,
)
from repro.observability.trace import reconstruct_from_records

from tests.observability.test_spans_trace import (
    request_record,
    reply_record,
    two_hop_records,
)


class TestParsers:
    def test_series_with_labels(self):
        name, labels = parse_series('gremlin_requests_total{dst="b",src="a"}')
        assert name == "gremlin_requests_total"
        assert labels == {"dst": "b", "src": "a"}

    def test_series_bare(self):
        assert parse_series("up") == ("up", {})

    def test_propagation_hop(self):
        assert parse_propagation_hop("a -> b (status=503)") == ("a", "b", "status=503")
        assert parse_propagation_hop("x -> y (no-reply)") == ("x", "y", "no-reply")

    def test_propagation_hop_with_arrow_like_names(self):
        src, dst, outcome = parse_propagation_hop("svc-1 -> svc-2 (error=-1)")
        assert (src, dst, outcome) == ("svc-1", "svc-2", "error=-1")

    def test_bad_hop_is_loud(self):
        with pytest.raises(AnalysisError):
            parse_propagation_hop("not a hop")

    def test_hop_degraded(self):
        assert not hop_degraded("status=200")
        assert not hop_degraded("status=404")
        assert hop_degraded("status=500")
        assert hop_degraded("status=503")
        assert hop_degraded("error=-1")
        assert hop_degraded("no-reply")
        # Unparseable status is treated as degraded, not silently OK.
        assert hop_degraded("status=garbage")


class TestHistogramQuantile:
    def test_empty_histogram_is_none(self):
        assert histogram_quantile({"count": 0, "buckets": [], "counts": []}, 0.5) is None

    def test_first_reaching_bucket_bound(self):
        data = {"buckets": [0.1, 1.0], "counts": [3, 1], "count": 4, "max": 0.9}
        assert histogram_quantile(data, 0.5) == 0.1
        assert histogram_quantile(data, 0.95) == 1.0

    def test_overflow_falls_back_to_max(self):
        data = {"buckets": [0.1], "counts": [1], "count": 4, "max": 7.5}
        assert histogram_quantile(data, 0.99) == 7.5


class TestEdgeStats:
    def test_rates_on_idle_edge(self):
        stats = EdgeStats(src="a", dst="b")
        assert stats.error_rate == 0.0
        assert stats.mean_latency is None

    def test_finalize_nearest_rank(self):
        stats = EdgeStats(src="a", dst="b", calls=4)
        stats._samples = [0.4, 0.1, 0.3, 0.2]
        stats.finalize()
        assert stats.latency_quantiles == {"p50": 0.2, "p95": 0.4, "p99": 0.4}
        assert stats._samples == []

    def test_dict_roundtrip(self):
        stats = EdgeStats(
            src="a", dst="b", calls=10, errors=2, latency_sum=1.5,
            latency_max=0.9, latency_quantiles={"p50": 0.1},
            retries=3.0, faults={"abort(503)": 4},
        )
        clone = EdgeStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats


def diamond_graph():
    """source -> a -> {b, c} -> d: the classic fan-out/fan-in shape."""
    graph = DependencyGraph()
    for src, dst in [("source", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
        graph.edge(src, dst).calls += 1
    return graph


class TestTopology:
    """The discovered graph's topology is an ApplicationGraph over the
    same edges, so it answers in the declared graph's vocabulary."""

    def test_services_and_sources_sorted(self):
        graph = diamond_graph()
        assert sorted(graph.topology.services()) == ["a", "b", "c", "d", "source"]
        assert graph.topology.entry_services() == ["source"]
        assert graph.to_dict()["services"] == ["a", "b", "c", "d", "source"]
        assert graph.to_dict()["sources"] == ["source"]

    def test_callers_and_callees(self):
        graph = diamond_graph()
        assert graph.topology.dependents("d") == ["b", "c"]
        assert graph.topology.dependencies("a") == ["b", "c"]

    def test_ancestors_and_descendants(self):
        graph = diamond_graph()
        assert graph.topology.upstream_closure("d") == {"a", "b", "c", "source"}
        assert graph.topology.downstream_closure("a") == {"b", "c", "d"}
        assert graph.topology.upstream_closure("source") == set()

    def test_cycles_terminate(self):
        graph = DependencyGraph()
        graph.edge("s", "a")
        graph.edge("a", "b")
        graph.edge("b", "a")  # mutual recursion
        # A closure never holds its start, even through a cycle (as in
        # networkx's ancestors/descendants).
        assert graph.topology.upstream_closure("a") == {"s", "b"}
        assert graph.topology.downstream_closure("a") == {"b"}
        assert graph.depth_of("b") >= 1

    def test_topology_tracks_every_way_in(self):
        """Edges touched one by one, passed to the constructor and read
        back from JSON give the same topology, in first-touch order."""
        graph = diamond_graph()
        edges = [("source", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert graph.topology.edges() == edges
        rebuilt = DependencyGraph(graph.edges.values())
        assert rebuilt.topology.edges() == edges
        reloaded = DependencyGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
        assert reloaded.topology.edges() == sorted(edges)

    def test_layers_are_depth_columns(self):
        graph = diamond_graph()
        assert graph.layers() == [["source"], ["a"], ["b", "c"], ["d"]]
        assert graph.depth_of("source") == 0
        assert graph.depth_of("d") == 3

    def test_dict_roundtrip_is_deterministic(self):
        graph = diamond_graph()
        doc = graph.to_dict()
        clone = DependencyGraph.from_dict(json.loads(json.dumps(doc)))
        assert clone.to_dict() == doc
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            clone.to_dict(), sort_keys=True
        )


def faulted_fanout_records():
    """user -> a -> {b, c} with an injected abort on a->b."""
    return [
        request_record("u#1", None, "user", "a", 0.0),
        request_record("a#1", "u#1", "a", "b", 0.1),
        reply_record(
            "a#1", "u#1", "a", "b", 0.1, latency=0.0, status=503,
            fault_applied="abort(503)", gremlin_generated=True,
        ),
        request_record("a#2", "u#1", "a", "c", 0.2),
        reply_record("a#2", "u#1", "a", "c", 0.4, latency=0.2),
        reply_record("u#1", None, "user", "a", 0.5, latency=0.5, status=500),
    ]


class TestDiscoverGraph:
    def test_folds_spans_into_weighted_edges(self):
        traces = [
            reconstruct_from_records("test-1", two_hop_records()),
            reconstruct_from_records("test-1", faulted_fanout_records()),
        ]
        graph = discover_graph(traces)
        assert set(graph.edges) == {
            ("user", "a"), ("a", "b"), ("a", "c"),
        }
        entry = graph.edges[("user", "a")]
        assert entry.calls == 2
        assert entry.errors == 1  # the faulted run's 500
        assert entry.latency_max == 0.5
        assert entry.latency_quantiles["p50"] == 0.5
        faulted = graph.edges[("a", "b")]
        assert faulted.faults == {"abort(503)": 1}
        assert faulted.errors == 1

    def test_empty_input_gives_empty_graph(self):
        graph = discover_graph([])
        assert len(graph) == 0
        assert graph.topology.services() == []
        assert graph.layers() == []


class TestGraphFromCampaign:
    def campaign(self):
        from repro.campaign.results import CampaignResult, RecipeOutcome

        metrics = {
            "counters": {
                'gremlin_requests_total{dst="a",src="user"}': 10,
                'gremlin_requests_total{dst="b",src="a"}': 10,
                'client_retries_total{dst="b",src="a"}': 5,
                'gremlin_faults_injected_total{dst="b",fault="abort(503)",src="a"}': 4,
            },
            "gauges": {},
            "histograms": {
                'gremlin_request_latency_seconds{dst="b",src="a"}': {
                    "buckets": [0.1, 1.0],
                    "counts": [8, 2],
                    "count": 10,
                    "sum": 2.0,
                    "min": 0.01,
                    "max": 0.8,
                },
            },
        }
        outcome = RecipeOutcome(
            index=0, name="r", pattern="timeout", service="b", seed=1,
            status="fail", metrics=metrics,
            attributions=[
                {
                    "edge": "a -> b",
                    "fault": "abort(503)",
                    "outcome": "status=500",
                    "propagation_path": [
                        "a -> b (status=503)",
                        "user -> a (status=500)",
                    ],
                }
            ],
        )
        return CampaignResult(
            name="c", app="app", seed=1, workers=1, outcomes=[outcome]
        )

    def test_rebuilds_weights_from_merged_evidence(self):
        graph = graph_from_campaign(self.campaign())
        edge = graph.edges[("a", "b")]
        assert edge.calls == 10
        assert edge.retries == 5
        assert edge.faults == {"abort(503)": 4}
        assert edge.latency_sum == 2.0
        assert edge.latency_max == 0.8
        assert edge.latency_quantiles == {"p50": 0.1, "p95": 1.0, "p99": 1.0}
        # Errors come from the attribution propagation path's degraded
        # hops — both the injected edge and the entry edge saw one.
        assert edge.errors == 1
        assert graph.edges[("user", "a")].errors == 1

    def test_survives_jsonl_roundtrip(self):
        from repro.campaign.io import dumps, loads

        result = self.campaign()
        reloaded = loads(dumps(result))
        assert graph_from_campaign(reloaded).to_dict() == graph_from_campaign(
            result
        ).to_dict()

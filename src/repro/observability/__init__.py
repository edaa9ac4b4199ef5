"""Observability: span traces, metrics, exporters, fault attribution.

What the paper's operators got from Elasticsearch dashboards, this
package provides in-process, on top of the agents' observation logs:

* :mod:`~repro.observability.spans` — the span model (one proxied
  request/reply exchange) assembled from observation records;
* :mod:`~repro.observability.trace` — per-request causal trees with
  critical-path extraction and per-edge latency breakdowns;
* :mod:`~repro.observability.metrics` — a single-writer registry of
  counters, gauges, and mergeable fixed-bucket histograms;
* :mod:`~repro.observability.exporters` — Prometheus-text and JSON
  renderings of metrics snapshots;
* :mod:`~repro.observability.attribution` — joining reconstructed
  traces against the active rule set so every failure names the
  injected fault that caused it and the path it propagated along;
* :mod:`~repro.observability.cascade` — campaign-level analytics on
  top of all of the above: dependency-graph discovery, blast-radius
  scoring, root-cause ranking, graph what-if simulation, and the
  operator resilience report.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "attribution": ["FaultAttribution", "attribute_run", "attribute_trace"],
        "cascade": [
            "BlastRadius",
            "DependencyGraph",
            "ResilienceReport",
            "blast_radius",
            "build_explore_report",
            "build_report",
            "discover_graph",
            "graph_from_campaign",
            "rank_root_causes",
            "simulate_fault",
        ],
        "exporters": ["to_json", "to_prometheus"],
        "metrics": [
            "DEFAULT_LATENCY_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "format_series",
            "merge_histogram_data",
            "merge_snapshots",
        ],
        "spans": ["Span", "assemble_spans"],
        "trace": [
            "Trace",
            "TraceNode",
            "reconstruct",
            "reconstruct_from_records",
            "trace_shape_digest",
        ],
    },
)

"""Cascade analytics: graph discovery, blast radii, root causes, reports.

The campaign and exploration layers *produce* evidence (outcomes,
metrics snapshots, fault attributions); this package *interprets* it:

* :mod:`~repro.observability.cascade.graph` — fold traces or a whole
  campaign into a weighted service-dependency graph;
* :mod:`~repro.observability.cascade.blast` — who degrades when each
  service's dependencies are faulted;
* :mod:`~repro.observability.cascade.rootcause` — ranked (service,
  fault-pattern) culprits per failed assertion;
* :mod:`~repro.observability.cascade.whatif` — propagate hypothetical
  faults over the discovered graph to triage candidates before running
  them;
* :mod:`~repro.observability.cascade.report` — the single
  ResilienceReport artifact (deterministic JSON + standalone HTML).
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "blast": ["BlastRadius", "blast_from_attributions", "blast_radius"],
        "graph": [
            "DependencyGraph",
            "EdgeStats",
            "discover_graph",
            "graph_from_campaign",
        ],
        "report": ["ResilienceReport", "build_explore_report", "build_report"],
        "rootcause": ["RootCauseCandidate", "rank_root_causes"],
        "whatif": [
            "CascadePrediction",
            "order_candidates",
            "predict_service_blast",
            "simulate_fault",
        ],
    },
)

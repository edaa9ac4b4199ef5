"""Service-dependency graph discovery from traces and campaign dumps.

The observability layer reconstructs *per-request* causal trees; this
module folds many of them into the one structure every cascade
analysis needs: a weighted service-dependency graph.  Each edge
carries what the sidecars actually observed — call counts, error
counts, latency quantiles, injected-fault tallies, client retries —
so the downstream analyses (blast radius, root-cause ranking, what-if
propagation, the resilience report's SVG diagram) all read from the
same discovered model rather than from a hand-declared topology.

Two discovery paths cover the two places a graph is needed:

* :func:`discover_graph` folds live :class:`~repro.observability.trace.Trace`
  objects (the exploration layer's fault-free discovery run has them);
* :func:`graph_from_campaign` rebuilds the graph from a
  :class:`~repro.campaign.results.CampaignResult` — including one
  re-loaded from a JSON-lines dump, where no raw records survive —
  by parsing the merged per-edge metric series
  (``gremlin_requests_total{src,dst}``, the latency histograms,
  ``client_retries_total``, ``gremlin_faults_injected_total``) and
  counting error hops out of the outcomes' attribution paths.

The graph serializes to JSON (:meth:`DependencyGraph.to_dict` /
:meth:`~DependencyGraph.from_dict`) with sorted keys, so two discovery
runs over the same data produce byte-identical documents — the
resilience report's determinism contract leans on this.
"""

from __future__ import annotations

import dataclasses
import re
import typing as _t

from repro.errors import AnalysisError
from repro.microservice.graph import ApplicationGraph

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.results import CampaignResult
    from repro.observability.trace import Trace

__all__ = [
    "EdgeStats",
    "DependencyGraph",
    "discover_graph",
    "graph_from_campaign",
    "parse_series",
    "parse_propagation_hop",
    "histogram_quantile",
]

#: Quantiles every edge reports, in report order.
QUANTILES = (0.5, 0.95, 0.99)

_SERIES_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')
_HOP_RE = re.compile(r"^(?P<src>.+?) -> (?P<dst>.+?) \((?P<outcome>.+)\)$")


def parse_series(key: str) -> _t.Tuple[str, _t.Dict[str, str]]:
    """Invert :func:`~repro.observability.metrics.format_series`.

    >>> parse_series('requests_total{dst="b",src="a"}')
    ('requests_total', {'dst': 'b', 'src': 'a'})
    >>> parse_series('up')
    ('up', {})
    """
    match = _SERIES_RE.match(key)
    if match is None:  # pragma: no cover - format_series output always matches
        raise AnalysisError(f"unparseable metric series key {key!r}")
    labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
    return match.group("name"), labels


def parse_propagation_hop(hop: str) -> _t.Tuple[str, str, str]:
    """Split one attribution propagation-path hop into (src, dst, outcome).

    Hops are rendered by the attribution layer as
    ``"src -> dst (status=503)"`` / ``"... (error=-1)"`` / ``"... (no-reply)"``.
    """
    match = _HOP_RE.match(hop)
    if match is None:
        raise AnalysisError(f"unparseable propagation hop {hop!r}")
    return match.group("src"), match.group("dst"), match.group("outcome")


def hop_degraded(outcome: str) -> bool:
    """True when a propagation-path hop outcome is a failure.

    ``status=N`` degrades at 5xx; any ``error=`` (transport reset,
    timeout sentinel) and an unanswered call (``no-reply``) always do.
    """
    if outcome.startswith("status="):
        try:
            return int(outcome[len("status="):]) >= 500
        except ValueError:
            return True
    return True


def histogram_quantile(data: _t.Mapping, quantile: float) -> _t.Optional[float]:
    """Estimate a quantile from fixed-bucket histogram snapshot data.

    Returns the upper bound of the first bucket whose cumulative count
    reaches the quantile — a deterministic, conservative (never
    under-reporting) estimate.  Observations above the last bound live
    in the implicit +Inf bucket; for those the recorded ``max`` is the
    tightest honest answer.  ``None`` for an empty histogram.
    """
    count = data.get("count", 0)
    if not count:
        return None
    threshold = quantile * count
    cumulative = 0
    for bound, bucket_count in zip(data["buckets"], data["counts"]):
        cumulative += bucket_count
        if cumulative >= threshold:
            return float(bound)
    return data.get("max")


@dataclasses.dataclass
class EdgeStats:
    """Observed weight of one ``src -> dst`` dependency edge."""

    src: str
    dst: str
    calls: int = 0
    errors: int = 0
    #: Sum of observed per-call latencies (seconds, virtual time).
    latency_sum: float = 0.0
    latency_max: float = 0.0
    #: Quantile label (``"p50"``...) -> estimated seconds; may be empty
    #: when the discovery source carried no latency detail.
    latency_quantiles: _t.Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Client-side retry attempts observed on the edge.
    retries: float = 0.0
    #: Fault description (``"abort(503)"``...) -> injections observed.
    faults: _t.Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Raw latencies accumulated during trace folding; dropped from the
    #: serialized form once quantiles are finalized.
    _samples: _t.List[float] = dataclasses.field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def error_rate(self) -> float:
        """Failed fraction of observed calls (0.0 for an idle edge)."""
        return self.errors / self.calls if self.calls else 0.0

    @property
    def mean_latency(self) -> _t.Optional[float]:
        return self.latency_sum / self.calls if self.calls else None

    def finalize(self) -> None:
        """Fold accumulated raw samples into quantiles (nearest-rank)."""
        if not self._samples:
            return
        ordered = sorted(self._samples)
        for quantile in QUANTILES:
            rank = max(0, min(len(ordered) - 1, int(quantile * len(ordered) + 0.5) - 1))
            self.latency_quantiles[f"p{int(quantile * 100)}"] = ordered[rank]
        self._samples = []

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "calls": self.calls,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 6),
            "latency_sum": round(self.latency_sum, 9),
            "latency_max": round(self.latency_max, 9),
            "latency_quantiles": {
                label: round(value, 9)
                for label, value in sorted(self.latency_quantiles.items())
            },
            "retries": self.retries,
            "faults": dict(sorted(self.faults.items())),
        }

    @classmethod
    def from_dict(cls, doc: _t.Mapping) -> "EdgeStats":
        return cls(
            src=doc["src"],
            dst=doc["dst"],
            calls=int(doc.get("calls", 0)),
            errors=int(doc.get("errors", 0)),
            latency_sum=float(doc.get("latency_sum", 0.0)),
            latency_max=float(doc.get("latency_max", 0.0)),
            latency_quantiles=dict(doc.get("latency_quantiles", {})),
            retries=float(doc.get("retries", 0.0)),
            faults=dict(doc.get("faults", {})),
        )


class DependencyGraph:
    """A weighted service-dependency graph discovered from observations.

    Nodes are service names (including the synthetic traffic source,
    which shows up as the only caller of the entry service); edges are
    :class:`EdgeStats`.  The topology — services, entry services,
    callers, callees and transitive closures — is the declared graph's
    own vocabulary: :attr:`topology` is an
    :class:`~repro.microservice.graph.ApplicationGraph` over the same
    edges, kept in step as edges are first touched.  It lists in first
    touch order; every consumer here that iterates sorts.
    """

    def __init__(self, edges: _t.Iterable[EdgeStats] = ()) -> None:
        self.edges: _t.Dict[_t.Tuple[str, str], EdgeStats] = {}
        self.topology = ApplicationGraph()
        for stats in edges:
            self._add(stats)

    # -- construction --------------------------------------------------------

    def edge(self, src: str, dst: str) -> EdgeStats:
        """The stats cell for ``src -> dst``, created on first touch."""
        stats = self.edges.get((src, dst))
        if stats is None:
            stats = self._add(EdgeStats(src=src, dst=dst))
        return stats

    def _add(self, stats: EdgeStats) -> EdgeStats:
        self.topology.add_dependency(stats.src, stats.dst)
        self.edges[(stats.src, stats.dst)] = stats
        return stats

    def finalize(self) -> "DependencyGraph":
        """Finalize every edge's quantiles; returns self for chaining."""
        for stats in self.edges.values():
            stats.finalize()
        return self

    # -- layout --------------------------------------------------------------

    def depth_of(self, service: str) -> int:
        """Longest hop distance from any source (sources are depth 0).

        Nodes unreachable from a source (cycle islands) report the
        number of services — they sort after everything reachable.
        """
        return self._depths().get(service, len(self.topology))

    def layers(self) -> _t.List[_t.List[str]]:
        """Services grouped by :meth:`depth_of` — the diagram's columns."""
        depths = self._depths()
        fallback = len(self.topology)
        grouped: _t.Dict[int, _t.List[str]] = {}
        for service in self.topology.services():
            grouped.setdefault(depths.get(service, fallback), []).append(service)
        return [sorted(grouped[depth]) for depth in sorted(grouped)]

    def _depths(self) -> _t.Dict[str, int]:
        depths = {source: 0 for source in self.topology.entry_services()}
        # Bounded relaxation: longest path from a source, cycle-safe
        # because a node's depth can rise at most |services| times.
        for _ in range(max(1, len(self.topology))):
            changed = False
            for src, dst in sorted(self.edges):
                if src in depths and depths[src] + 1 > depths.get(dst, -1):
                    depths[dst] = depths[src] + 1
                    changed = True
            if not changed:
                break
        return depths

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "services": sorted(self.topology.services()),
            "sources": sorted(self.topology.entry_services()),
            "edges": {
                f"{src} -> {dst}": self.edges[(src, dst)].to_dict()
                for src, dst in sorted(self.edges)
            },
        }

    @classmethod
    def from_dict(cls, doc: _t.Mapping) -> "DependencyGraph":
        return cls(EdgeStats.from_dict(edge) for edge in doc.get("edges", {}).values())

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"<DependencyGraph services={len(self.topology)}"
            f" edges={len(self.edges)}>"
        )


def discover_graph(traces: _t.Iterable["Trace"]) -> DependencyGraph:
    """Fold causal trees into a weighted dependency graph.

    Every span contributes one call on its edge; latency quantiles are
    exact (nearest-rank over the raw per-call samples), and a span that
    carries a fired fault tallies under that fault's description.
    """
    graph = DependencyGraph()
    for trace in traces:
        for span in trace.spans:
            stats = graph.edge(span.src, span.dst)
            stats.calls += 1
            if not span.ok:
                stats.errors += 1
            if span.latency is not None:
                stats.latency_sum += span.latency
                stats.latency_max = max(stats.latency_max, span.latency)
                stats._samples.append(span.latency)
            for fault in span.faults:
                stats.faults[fault] = stats.faults.get(fault, 0) + 1
    return graph.finalize()


def graph_from_campaign(result: "CampaignResult") -> DependencyGraph:
    """Rebuild the dependency graph from a campaign's merged evidence.

    Works on a freshly executed result *and* on one re-loaded from a
    JSON-lines dump: everything needed rides in the outcomes.  Call
    counts and latency quantiles come from the merged per-edge metric
    series; error counts come from the attribution propagation paths
    (the only per-edge failure evidence a dump retains, so the
    ``errors`` weights cover attributed failures, not every 5xx).
    """
    graph = DependencyGraph()
    merged = result.merged_metrics()
    for key, value in merged.get("counters", {}).items():
        name, labels = parse_series(key)
        if name == "gremlin_requests_total":
            graph.edge(labels["src"], labels["dst"]).calls += int(value)
        elif name == "client_retries_total":
            graph.edge(labels["src"], labels["dst"]).retries += value
        elif name == "gremlin_faults_injected_total":
            stats = graph.edge(labels["src"], labels["dst"])
            fault = labels.get("fault", "unknown")
            stats.faults[fault] = stats.faults.get(fault, 0) + value
    for key, data in merged.get("histograms", {}).items():
        name, labels = parse_series(key)
        if name != "gremlin_request_latency_seconds":
            continue
        stats = graph.edge(labels["src"], labels["dst"])
        stats.latency_sum += data.get("sum", 0.0)
        if data.get("max") is not None:
            stats.latency_max = max(stats.latency_max, data["max"])
        for quantile in QUANTILES:
            estimate = histogram_quantile(data, quantile)
            if estimate is not None:
                stats.latency_quantiles[f"p{int(quantile * 100)}"] = estimate
    for outcome in result.outcomes:
        for doc in outcome.attributions:
            for hop in doc.get("propagation_path", ()):
                src, dst, hop_outcome = parse_propagation_hop(hop)
                if hop_degraded(hop_outcome):
                    graph.edge(src, dst).errors += 1
    return graph.finalize()

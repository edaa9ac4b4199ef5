"""Graph-level what-if simulation: cheap cascade triage before real runs.

Full-fidelity fault executions are the expensive resource; the
discovered :class:`~repro.observability.cascade.graph.DependencyGraph`
is cheap.  Following the model-discovery-plus-graph-simulation idea,
this module propagates a *hypothetical* fault over the graph with
simple degradation/retry-amplification semantics and produces a
predicted blast set per candidate — enough signal to decide which
full-fidelity experiments to run first.

The model (deliberately simple, deliberately worst-case):

* Faulting edge ``src -> dst`` degrades ``src`` and, absent evidence
  of absorption, every transitive caller of ``src`` — the fault-free
  discovery run cannot prove a timeout/fallback will catch it, so the
  model assumes propagation.  The predicted blast set is that upstream
  cone; its size is the impact term.
* A **delay** of interval *I* inflates the entry latency by *I*: a
  stall is renewed on every call, cannot be outrun by retries, and
  consumes caller capacity while it lasts.  Damage is *I* seconds
  (capped), which against millisecond-scale discovered baselines
  dominates any error-class damage.
* An **abort/reset** does damage through two channels: user-visible
  fast failures (base damage 1 per request) and retry amplification —
  callers that retry a failing edge multiply call volume on it, so the
  base damage is scaled by the retry multiplier
  (:data:`RETRY_AMPLIFICATION` when the graph shows no observed retry
  rate to use instead).  Under the default multiplier an abort's
  damage ties a canonical sustained stall — deliberately: which fault
  class trips a latent bug (a stall for a missing timeout, a fast
  error for an unbounded retry or stuck breaker) is exactly what the
  fault-free discovery run cannot reveal, so at equal blast the model
  alternates classes instead of exhausting one.

Candidate ordering (:func:`order_candidates`) scores every coordinate
as ``predicted blast size + damage`` and sorts once, statically — no
online feedback — which makes the schedule a pure function of the
discovery run.  Prediction quality is measured against the seeded-bug
apps' ground truth in ``benchmarks/test_bench_report.py``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import AnalysisError
from repro.observability.cascade.graph import DependencyGraph

__all__ = [
    "CascadePrediction",
    "simulate_fault",
    "predict_service_blast",
    "order_candidates",
]

#: Cap on the latency-damage term so one huge Delay interval cannot
#: drown the blast-size term entirely.
DELAY_DAMAGE_CAP = 10.0

#: Base damage of an application-level abort: every request fails
#: fast.  Scaled by the edge's retry multiplier at simulation time —
#: the second damage channel of an error-class fault.
ABORT_DAMAGE = 1.0

#: A TCP-level reset is discounted well below an abort — not because
#: its impact is lower, but because it is *redundant* with one: both
#: drive the caller's error-handling path, so once an abort is ranked
#: on an edge a reset there carries little new information.  The
#: discount (one full blast level under the default retry multiplier)
#: defers resets behind neighboring edges' untried fault classes.
RESET_DAMAGE = 0.5

#: Assumed call multiplication on a failing edge when the discovery
#: run observed no retries (fault-free runs never do): one retry per
#: failure across a typical default policy.
RETRY_AMPLIFICATION = 2.0


@dataclasses.dataclass(frozen=True)
class CascadePrediction:
    """Predicted consequences of one hypothetical fault."""

    src: str
    dst: str
    fault: str
    #: Delay interval (seconds); 0 for error-class faults.
    interval: float
    #: Predicted blast set: services degraded if nothing absorbs the
    #: fault — the injection's source and its transitive callers.
    impacted: _t.Tuple[str, ...]
    #: Predicted entry-latency inflation (seconds).
    entry_latency_inflation: float
    #: Predicted fraction of entry requests failing.
    entry_error_fraction: float
    #: Predicted call volume on the faulted edge, after amplification.
    amplified_calls: float
    #: Damage term (latency/error, pre-blast-scaling).
    damage: float
    #: Triage score: blast size + damage.  Higher = try first.
    score: float

    def to_dict(self) -> dict:
        return {
            "edge": f"{self.src} -> {self.dst}",
            "fault": self.fault,
            "interval": self.interval,
            "impacted": list(self.impacted),
            "entry_latency_inflation": self.entry_latency_inflation,
            "entry_error_fraction": self.entry_error_fraction,
            "amplified_calls": round(self.amplified_calls, 3),
            "damage": round(self.damage, 6),
            "score": round(self.score, 6),
        }


def _edge_calls(graph: DependencyGraph, src: str, dst: str) -> float:
    stats = graph.edges.get((src, dst))
    return float(stats.calls) if stats is not None else 0.0


def _retry_multiplier(graph: DependencyGraph, src: str, dst: str) -> float:
    """Observed (1 + retries/call) on the edge, or the model default."""
    stats = graph.edges.get((src, dst))
    if stats is not None and stats.calls and stats.retries:
        return 1.0 + stats.retries / stats.calls
    return RETRY_AMPLIFICATION


def simulate_fault(
    graph: DependencyGraph,
    src: str,
    dst: str,
    fault: str,
    *,
    interval: float = 0.0,
) -> CascadePrediction:
    """Propagate one hypothetical fault on ``src -> dst`` over the graph.

    ``fault`` is a primitive name (``abort``/``reset``/``delay``/
    ``delay_short``); delay-class primitives take ``interval`` seconds.
    """
    impacted = tuple(sorted(graph.topology.upstream_closure(src) | {src}))
    calls = _edge_calls(graph, src, dst)
    if fault in ("delay", "delay_short"):
        if interval < 0:
            raise AnalysisError(f"delay interval must be >= 0, got {interval}")
        damage = min(interval, DELAY_DAMAGE_CAP)
        return CascadePrediction(
            src=src,
            dst=dst,
            fault=fault,
            interval=interval,
            impacted=impacted,
            entry_latency_inflation=interval,
            entry_error_fraction=0.0,
            amplified_calls=calls,
            damage=damage,
            score=len(impacted) + damage,
        )
    multiplier = _retry_multiplier(graph, src, dst)
    damage = (RESET_DAMAGE if fault == "reset" else ABORT_DAMAGE) * multiplier
    amplified = calls * multiplier
    return CascadePrediction(
        src=src,
        dst=dst,
        fault=fault,
        interval=0.0,
        impacted=impacted,
        entry_latency_inflation=0.0,
        entry_error_fraction=1.0,
        amplified_calls=amplified,
        damage=damage,
        score=len(impacted) + damage,
    )


def predict_service_blast(
    graph: DependencyGraph, service: str
) -> _t.Dict[str, _t.Any]:
    """Predicted blast of ``service`` failing outright (for reports).

    The worst incoming-edge prediction: every caller edge aborts, the
    upstream cone degrades, call volume on the incoming edges amplifies
    by the modeled retry factor.
    """
    topology = graph.topology
    impacted = tuple(sorted(topology.upstream_closure(service)))
    amplified = sum(
        _edge_calls(graph, caller, service) * _retry_multiplier(graph, caller, service)
        for caller in sorted(topology.dependents(service))
    )
    return {
        "service": service,
        "impacted": list(impacted),
        "blast_size": len(impacted),
        "amplified_calls": round(amplified, 3),
    }


def _subtree_weight(graph: DependencyGraph, service: str) -> int:
    return len(graph.topology.downstream_closure(service)) + 1


def order_candidates(
    coordinates: _t.Sequence,
    graph: DependencyGraph,
    *,
    intervals: _t.Optional[_t.Mapping[str, float]] = None,
    requests: int = 1,
) -> _t.List:
    """Statically order exploration coordinates by predicted damage.

    ``coordinates`` are :class:`~repro.explore.coords.Coordinate`-shaped
    objects (``mode``/``src``/``dst``/``fault`` attributes); the return
    is the same objects, most-damaging prediction first.  ``intervals``
    maps delay-class primitive names to their concrete seconds (from
    the app manifest); ``requests`` is the workload size — a
    single-invocation fault is transient, so its predicted damage is
    one request's share of the sweep's.

    Ties break deterministically: larger damage term first (a
    sustained stall beats a fast error at equal blast), then the edge
    with the larger downstream subtree (more structure underneath to
    disturb), then the caller-supplied enumeration order.
    """
    intervals = dict(intervals or {})
    scored: _t.List[_t.Tuple[float, float, int, int, _t.Any]] = []
    for index, coordinate in enumerate(coordinates):
        prediction = simulate_fault(
            graph,
            coordinate.src,
            coordinate.dst,
            coordinate.fault,
            interval=intervals.get(coordinate.fault, 0.0),
        )
        score = prediction.score
        if getattr(coordinate, "mode", "sweep") == "single" and requests > 1:
            score /= requests
        scored.append(
            (
                score,
                prediction.damage,
                _subtree_weight(graph, coordinate.dst),
                index,
                coordinate,
            )
        )
    scored.sort(key=lambda item: (-item[0], -item[1], -item[2], item[3]))
    return [item[4] for item in scored]

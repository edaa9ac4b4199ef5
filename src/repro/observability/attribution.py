"""Join reconstructed traces against the active rule set.

An assertion failure tells the operator *that* the system misbehaved;
attribution tells them *why*: which installed fault rule fired, on
which edge, and how the failure propagated from the injection site up
to the entry edge.  This is the closing of the loop the paper leaves
manual — the operator reading agent logs to connect an injected abort
to the user-visible 503.

The join key is what both sides already share: a fired rule stamps
``rule.describe()`` (e.g. ``"abort(503)"``) into the observation
record's ``fault_applied``, and the rule itself names the edge it was
installed on.  Matching (edge, description) pairs therefore recovers
the exact rule — including when several rules target different edges
with the same fault shape.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.agent.rules import FaultRule
from repro.logstore.query import Query
from repro.logstore.record import ObservationRecord
from repro.observability.spans import Span, span_rows
from repro.observability.trace import Trace, reconstruct_from_records
from repro.util import plain

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logstore.store import EventStore

__all__ = ["FaultAttribution", "attribute_trace", "attribute_run"]


@dataclasses.dataclass
class FaultAttribution:
    """One injected fault tied to one request's failure path.

    ``propagation_path`` lists edges from the injection site up to the
    trace root, each with its observed outcome — the blast radius of
    the fault as the sidecars saw it.  ``rule_id`` is ``None`` when the
    fault string matched no active rule (e.g. attribution ran against
    the wrong rule set), which is itself a loud finding.
    """

    request_id: str
    fault: str
    edge: str
    span_id: str
    rule_id: _t.Optional[int]
    rule: _t.Optional[str]
    propagation_path: _t.List[str]
    outcome: str
    #: Whether the faulted span sat on the trace's latency-critical
    #: path — the root-cause ranker's tie-break signal.  ``None`` on
    #: attributions deserialized from dumps that predate the field.
    on_critical_path: _t.Optional[bool] = None

    def to_dict(self) -> dict:
        """Plain-dict form for campaign dumps and scorecards."""
        return plain(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultAttribution":
        """Inverse of :meth:`to_dict`."""
        return cls(**doc)

    def describe(self) -> str:
        """One-line human summary for scorecards."""
        rule = f"rule#{self.rule_id}" if self.rule_id is not None else "NO MATCHING RULE"
        path = " => ".join(self.propagation_path) if self.propagation_path else "?"
        return (
            f"{self.request_id}: {self.fault} on {self.edge} ({rule})"
            f" propagated {path}; outcome {self.outcome}"
        )


def _outcome_of(span: Span) -> str:
    if span.error is not None:
        return f"error={span.error}"
    if span.status is not None:
        return f"status={span.status}"
    return "no-reply"


def _match_rule(span: Span, fault: str, rules: _t.Sequence[FaultRule]) -> _t.Optional[FaultRule]:
    for rule in rules:
        if rule.src == span.src and rule.dst == span.dst and rule.describe() == fault:
            return rule
    return None


def attribute_trace(
    trace: Trace, rules: _t.Sequence[FaultRule]
) -> _t.List[FaultAttribution]:
    """Attributions for every fault that fired within one trace.

    A span where both a request- and a response-direction rule fired
    yields one attribution per action.  The propagation path walks
    parent links from the faulted span to its root, so the operator
    sees each hop's outcome — where a fault was absorbed by a
    resilience pattern, the path shows the recovery point.
    """
    attributions: _t.List[FaultAttribution] = []
    critical_ids = {s.span_id for s in trace.critical_path()}
    for span in trace.faulted_spans():
        path = trace.path_to_root(span.span_id)
        rendered_path = [f"{s.src} -> {s.dst} ({_outcome_of(s)})" for s in path]
        root_outcome = _outcome_of(path[-1]) if path else _outcome_of(span)
        for fault in span.faults:
            rule = _match_rule(span, fault, rules)
            attributions.append(
                FaultAttribution(
                    request_id=trace.request_id,
                    fault=fault,
                    edge=f"{span.src} -> {span.dst}",
                    span_id=span.span_id,
                    rule_id=rule.rule_id if rule is not None else None,
                    rule=str(rule) if rule is not None else None,
                    propagation_path=rendered_path,
                    outcome=root_outcome,
                    on_critical_path=span.span_id in critical_ids,
                )
            )
    return attributions


def _trace_failed(records: _t.Iterable[ObservationRecord]) -> bool:
    """:attr:`Trace.failed` of the trace ``records`` would build, without
    building it.

    The spans are :func:`~repro.observability.spans.span_rows`'.  A root
    is a span with no parent or whose parent is not among the request's
    spans (an orphan), and the trace failed when a root did not end ok
    (:attr:`Span.ok`).
    """
    for spans in span_rows(records).values():
        for _, _, status, error, _, parent in spans.values():
            if (parent is None or parent not in spans) and not (
                error is None and status is not None and status < 500
            ):
                return True
    return False


def attribute_run(
    store: "EventStore",
    rules: _t.Sequence[FaultRule],
    only_failed: bool = True,
    limit: _t.Optional[int] = None,
) -> _t.List[FaultAttribution]:
    """Attribute every faulted request in a stored run.

    Finds request IDs with at least one fired fault (one filtered pass
    over the run's records), reconstructs each one's trace from the
    store's request-ID index, and joins it against ``rules``.  With
    ``only_failed`` (the default) traces whose entry edge still
    succeeded — the resilience pattern absorbed the fault — are
    skipped, leaving exactly the failures an operator must explain.
    That is decided from the records (:func:`_trace_failed`) before any
    trace is built, so an absorbed fault costs one pass over its
    request's records.  ``limit`` caps the number of traces attributed,
    for scorecards that only need examples.
    """
    faulted_ids: _t.List[str] = []
    seen: _t.Set[str] = set()
    for record in store.search_iter(Query(with_faults_only=True)):
        rid = record.request_id
        if rid is not None and rid not in seen:
            seen.add(rid)
            faulted_ids.append(rid)

    attributions: _t.List[FaultAttribution] = []
    for rid in faulted_ids:
        if limit is not None and len(attributions) >= limit:
            break
        records = store.search(Query(id_pattern=rid))
        if only_failed and not _trace_failed(records):
            continue
        attributions.extend(attribute_trace(reconstruct_from_records(rid, records), rules))
    if limit is not None:
        attributions = attributions[:limit]
    return attributions

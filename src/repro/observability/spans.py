"""The span model: one proxied call, assembled from observation records.

A *span* is one request/reply exchange as seen by the sidecar agent
that proxied it.  Agents do not emit a third record kind for spans —
the (request, reply) :class:`~repro.logstore.record.ObservationRecord`
pair sharing a ``span_id`` *is* the span; this module folds such pairs
into :class:`Span` values that trace reconstruction can tree up.

Because the records come from a lossy shipping pipeline (and because
experiments kill services mid-flight), assembly is defensive: every
anomaly — a reply with no request, duplicate span IDs, a span that
never completed — is reported as a loud human-readable diagnostic
rather than silently dropped, so an operator reading ``repro trace``
output knows exactly how much of the picture is missing.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.logstore.record import ObservationKind, ObservationRecord
from repro.util import plain

__all__ = ["Span", "assemble_spans", "span_rows"]


@dataclasses.dataclass
class Span:
    """One proxied request/reply exchange on one edge.

    ``start`` is when the request left the caller's sidecar; ``end`` is
    when the reply (or transport error) was handed back, or ``None``
    for spans whose reply record never arrived.  Each retry attempt is
    its own span — sibling spans with the same parent — so retry storms
    are visible as fan-out in the causal tree.
    """

    span_id: str
    parent_span: _t.Optional[str]
    src: str
    dst: str
    src_instance: str
    request_id: _t.Optional[str]
    method: _t.Optional[str]
    uri: _t.Optional[str]
    start: float
    end: _t.Optional[float] = None
    status: _t.Optional[int] = None
    error: _t.Optional[str] = None
    latency: _t.Optional[float] = None
    injected_delay: float = 0.0
    fault_applied: _t.Optional[str] = None
    gremlin_generated: bool = False

    @property
    def edge(self) -> _t.Tuple[str, str]:
        """The (caller, callee) pair this span traversed."""
        return (self.src, self.dst)

    @property
    def complete(self) -> bool:
        """True once the reply record was observed."""
        return self.end is not None

    @property
    def ok(self) -> bool:
        """True for a successful exchange (2xx–4xx, no transport error)."""
        return self.error is None and self.status is not None and self.status < 500

    @property
    def faults(self) -> _t.List[str]:
        """The individual fault actions applied, e.g. ``["delay(3)", "abort(503)"]``.

        ``fault_applied`` joins multiple actions with ``+`` when both a
        request- and a response-direction rule fired on the same call.
        """
        if not self.fault_applied:
            return []
        return self.fault_applied.split("+")

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return plain(self)

    def describe(self) -> str:
        """One-line human summary, the unit of trace rendering."""
        outcome = (
            f"error={self.error}" if self.error is not None
            else f"status={self.status}" if self.status is not None
            else "no-reply"
        )
        timing = f"{self.latency:.4f}s" if self.latency is not None else "?s"
        parts = [f"{self.src} -> {self.dst}", f"[{self.span_id}]", timing, outcome]
        if self.fault_applied:
            parts.append(f"fault={self.fault_applied}")
        if self.gremlin_generated:
            parts.append("(gremlin-synthesized)")
        return "  ".join(parts)


def assemble_spans(
    records: _t.Iterable[ObservationRecord],
) -> _t.Tuple[_t.List[Span], _t.List[str]]:
    """Fold observation records into spans, collecting diagnostics.

    Returns ``(spans, diagnostics)``: spans sorted by start time, and
    one message per anomaly observed.  Records without a ``span_id``
    (from dumps written before spans existed) are counted but excluded
    — they cannot participate in a causal tree.
    Edge, parent and outcome follow :func:`span_rows`' rule.
    """
    by_id: _t.Dict[str, Span] = {}
    order: _t.List[Span] = []
    diagnostics: _t.List[str] = []
    untraced = 0

    for record in records:
        if record.span_id is None:
            untraced += 1
            continue
        span = by_id.get(record.span_id)
        if record.is_request:
            if span is not None:
                diagnostics.append(
                    f"duplicate request record for span {record.span_id}"
                    f" ({record.src} -> {record.dst} at t={record.timestamp:g});"
                    " keeping the first"
                )
                continue
            span = Span(
                span_id=record.span_id,
                parent_span=record.parent_span,
                src=record.src,
                dst=record.dst,
                src_instance=record.src_instance,
                request_id=record.request_id,
                method=record.method,
                uri=record.uri,
                start=record.timestamp,
                # Agents update the request record in place once the
                # outcome is known, so carry those fields over; the
                # reply record (if it arrives) refines end/latency.
                status=record.status,
                error=record.error,
                fault_applied=record.fault_applied,
                injected_delay=record.injected_delay,
            )
            by_id[record.span_id] = span
            order.append(span)
        else:
            if span is None:
                diagnostics.append(
                    f"reply record for span {record.span_id}"
                    f" ({record.src} -> {record.dst} at t={record.timestamp:g})"
                    " has no request record — request was lost in shipping"
                )
                latency = record.latency or 0.0
                span = Span(
                    span_id=record.span_id,
                    parent_span=record.parent_span,
                    src=record.src,
                    dst=record.dst,
                    src_instance=record.src_instance,
                    request_id=record.request_id,
                    method=record.method,
                    uri=record.uri,
                    start=record.timestamp - latency,
                )
                by_id[record.span_id] = span
                order.append(span)
            span.end = record.timestamp
            span.latency = record.latency
            span.status = record.status
            span.error = record.error
            span.fault_applied = record.fault_applied
            span.injected_delay = record.injected_delay
            span.gremlin_generated = record.gremlin_generated

    for span in order:
        if not span.complete:
            diagnostics.append(
                f"span {span.span_id} ({span.src} -> {span.dst},"
                f" started t={span.start:g}) has no reply record —"
                " call still in flight at drain, or reply lost in shipping"
            )
    if untraced:
        diagnostics.append(
            f"{untraced} record(s) carry no span ID and were excluded"
            " (a dump written before spans existed)"
        )

    order.sort(key=lambda span: (span.start, span.span_id))
    return order, diagnostics


def span_rows(
    records: _t.Iterable[ObservationRecord],
) -> _t.Dict[str, _t.Dict[str, list]]:
    """The light fold of :func:`assemble_spans`: each request's spans as
    rows, without building a :class:`Span` or a diagnostic.

    Returns ``{request_id: {span_id: [src, dst, status, error,
    fault_applied, parent_span]}}``, spans in first-record order.  A
    span's first record fixes its edge and parent; a later request
    record for it is a duplicate and ignored; a reply overwrites the
    outcome.  A record without a span ID joins no span (a request ID
    whose records are all untraced gets no spans), and one without a
    request ID is skipped.
    """
    requests: _t.Dict[str, _t.Dict[str, list]] = {}
    for record in records:
        request_id = record.request_id
        if request_id is None:
            continue
        spans = requests.get(request_id)
        if spans is None:
            spans = requests[request_id] = {}
        span_id = record.span_id
        if span_id is None:
            continue
        span = spans.get(span_id)
        if span is None:
            spans[span_id] = [
                record.src,
                record.dst,
                record.status,
                record.error,
                record.fault_applied,
                record.parent_span,
            ]
        elif record.kind == ObservationKind.REPLY:
            span[2:5] = record.status, record.error, record.fault_applied
    return requests

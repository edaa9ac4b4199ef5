"""Per-request causal trees reconstructed from span records.

The paper's assertions reason about flat request/reply lists per edge;
this module recovers the *structure* between them: which downstream
calls a request caused, in what order, and which path through the tree
determined the end-to-end latency.  Reconstruction needs only what the
agents already log — the span ID each sidecar mints and the parent
span ID each service propagates — so it works on any stored run,
including campaign dumps re-loaded later.

Lookup uses the store's exact request-ID index (the ``rid`` driver):
pulling one request's records is a point lookup, not a scan, which is
what makes ``repro trace`` interactive even on large runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as _t

from repro.errors import TraceError
from repro.logstore.query import Query
from repro.logstore.record import ObservationRecord
from repro.observability.spans import Span, assemble_spans

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logstore.store import EventStore

__all__ = [
    "Trace",
    "TraceNode",
    "reconstruct",
    "reconstruct_from_records",
    "trace_shape_digest",
]


@dataclasses.dataclass
class TraceNode:
    """One span plus the calls it caused, start-ordered."""

    span: Span
    children: _t.List["TraceNode"] = dataclasses.field(default_factory=list)

    def walk(self) -> _t.Iterator[_t.Tuple["TraceNode", int]]:
        """Depth-first (node, depth) traversal."""
        stack: _t.List[_t.Tuple["TraceNode", int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))


class Trace:
    """The causal tree of one request's proxied calls.

    ``roots`` are spans with no recorded parent — normally the single
    entry edge, but client-side retries at the entry produce sibling
    roots (one per attempt).  Spans whose parent ID is missing from
    the record set ("orphans", e.g. the parent was lost in shipping)
    are kept as extra roots and called out in ``diagnostics`` rather
    than dropped: partial visibility, loudly labelled.
    """

    def __init__(
        self,
        request_id: str,
        spans: _t.List[Span],
        diagnostics: _t.List[str],
    ) -> None:
        self.request_id = request_id
        self.spans = spans
        self.diagnostics = list(diagnostics)
        self.nodes: _t.Dict[str, TraceNode] = {
            span.span_id: TraceNode(span) for span in spans
        }
        self.roots: _t.List[TraceNode] = []
        self.orphans: _t.List[Span] = []
        for span in spans:
            node = self.nodes[span.span_id]
            if span.parent_span is None:
                self.roots.append(node)
            elif span.parent_span in self.nodes:
                self.nodes[span.parent_span].children.append(node)
            else:
                self.orphans.append(span)
                self.roots.append(node)
                self.diagnostics.append(
                    f"span {span.span_id} ({span.src} -> {span.dst}) references"
                    f" unknown parent {span.parent_span} — treating as a root"
                    " (parent record lost or trace truncated)"
                )

    # -- aggregate views -----------------------------------------------------

    @property
    def span_count(self) -> int:
        """Number of spans in the tree."""
        return len(self.spans)

    @property
    def start(self) -> _t.Optional[float]:
        """Earliest span start, or None for an empty trace."""
        return min((s.start for s in self.spans), default=None)

    @property
    def end(self) -> _t.Optional[float]:
        """Latest span end among completed spans, or None."""
        return max((s.end for s in self.spans if s.end is not None), default=None)

    @property
    def duration(self) -> _t.Optional[float]:
        """End-to-end wall span of the trace, when computable."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    @property
    def failed(self) -> bool:
        """True if any root span ended in an error outcome."""
        return any(not root.span.ok for root in self.roots)

    def faulted_spans(self) -> _t.List[Span]:
        """Spans where a Gremlin rule fired, start-ordered."""
        return [span for span in self.spans if span.fault_applied]

    def path_to_root(self, span_id: str) -> _t.List[Span]:
        """The span chain from ``span_id`` up to its root, leaf first."""
        path: _t.List[Span] = []
        seen: _t.Set[str] = set()
        current: _t.Optional[str] = span_id
        while current is not None and current in self.nodes and current not in seen:
            seen.add(current)
            span = self.nodes[current].span
            path.append(span)
            current = span.parent_span
        return path

    def critical_path(self) -> _t.List[Span]:
        """The span chain that determined the trace's completion time.

        Greedy descent from the latest-finishing root: at each node,
        follow the child whose ``end`` is latest (incomplete children
        count as still running, i.e. latest of all).  For synchronous
        call trees this is the classic latency-critical path; per-edge
        time on it is where optimization or fault impact concentrates.
        """
        if not self.roots:
            return []

        def end_key(node: TraceNode) -> float:
            return float("inf") if node.span.end is None else node.span.end

        path: _t.List[Span] = []
        node = max(self.roots, key=end_key)
        while True:
            path.append(node.span)
            if not node.children:
                return path
            node = max(node.children, key=end_key)

    def edge_latency(self) -> _t.Dict[_t.Tuple[str, str], dict]:
        """Per-edge latency breakdown across the whole trace.

        Maps (src, dst) to count/total/max latency plus how much of the
        total was Gremlin-injected delay — separating "the callee is
        slow" from "we made the callee slow".
        """
        edges: _t.Dict[_t.Tuple[str, str], dict] = {}
        for span in self.spans:
            bucket = edges.setdefault(
                span.edge,
                {"calls": 0, "total": 0.0, "max": 0.0, "injected": 0.0, "incomplete": 0},
            )
            bucket["calls"] += 1
            if span.latency is None:
                bucket["incomplete"] += 1
            else:
                bucket["total"] += span.latency
                bucket["max"] = max(bucket["max"], span.latency)
            bucket["injected"] += span.injected_delay
        return edges

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form: spans, tree shape, diagnostics."""
        return {
            "request_id": self.request_id,
            "span_count": self.span_count,
            "duration": self.duration,
            "failed": self.failed,
            "spans": [span.to_dict() for span in self.spans],
            "roots": [root.span.span_id for root in self.roots],
            "critical_path": [span.span_id for span in self.critical_path()],
            "diagnostics": list(self.diagnostics),
        }

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """ASCII causal tree with faults and the critical path annotated."""
        lines: _t.List[str] = []
        duration = f"{self.duration:.4f}s" if self.duration is not None else "incomplete"
        lines.append(
            f"trace {self.request_id}: {self.span_count} span(s),"
            f" {len(self.roots)} root(s), duration {duration}"
        )
        critical = {span.span_id for span in self.critical_path()}
        for root in sorted(self.roots, key=lambda n: (n.span.start, n.span.span_id)):
            self._render_node(root, "", True, critical, lines)
        if self.diagnostics:
            lines.append("diagnostics:")
            for message in self.diagnostics:
                lines.append(f"  ! {message}")
        return "\n".join(lines)

    def _render_node(
        self,
        node: TraceNode,
        indent: str,
        last: bool,
        critical: _t.Set[str],
        lines: _t.List[str],
    ) -> None:
        branch = "`-" if last else "|-"
        marks = ""
        if node.span.span_id in critical:
            marks += "  *critical*"
        if not node.span.ok:
            marks += "  FAILED" if node.span.complete else "  INCOMPLETE"
        lines.append(f"{indent}{branch} {node.span.describe()}{marks}")
        child_indent = indent + ("   " if last else "|  ")
        children = sorted(node.children, key=lambda n: (n.span.start, n.span.span_id))
        for index, child in enumerate(children):
            self._render_node(
                child, child_indent, index == len(children) - 1, critical, lines
            )


def _shape_form(node: TraceNode) -> _t.List[_t.Any]:
    """Canonical nested form of one subtree, independent of span IDs.

    Each node contributes what the call *was* and how it *ended* —
    (src, dst, status, error?, fault applied) — never the identifiers
    minted along the way (span IDs, timestamps, instance names), so two
    runs of the same behaviour canonicalize identically even when IDs
    are renumbered.  Children are ordered by their own canonical form,
    making the result insensitive to sibling enumeration order too.
    """
    span = node.span
    children = sorted(
        (_shape_form(child) for child in node.children),
        key=lambda form: json.dumps(form, separators=(",", ":")),
    )
    return [
        span.src,
        span.dst,
        span.status,
        bool(span.error),
        span.fault_applied,
        children,
    ]


def trace_shape_digest(trace: Trace) -> str:
    """Stable hash of a causal tree's *shape*.

    Two traces digest equally iff their trees have the same structure
    of (src, dst, status, errored?, fault-applied) nodes — regardless
    of span-ID numbering, record arrival order, scheduler lane, fleet
    backend, or wall-clock jitter.  The exploration layer uses this as
    its coverage signal ("new shape ⇒ interesting input") and the fuzz
    metamorphic battery uses it to compare executions whose absolute
    digests legitimately differ (e.g. after rule-ID reassignment).
    """
    forms = sorted(
        (_shape_form(root) for root in trace.roots),
        key=lambda form: json.dumps(form, separators=(",", ":")),
    )
    payload = json.dumps(forms, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def reconstruct_from_records(
    request_id: str, records: _t.Iterable[ObservationRecord]
) -> Trace:
    """Build a :class:`Trace` from already-fetched records."""
    spans, diagnostics = assemble_spans(records)
    return Trace(request_id, spans, diagnostics)


def reconstruct(store: "EventStore", request_id: str) -> Trace:
    """Reconstruct the causal tree of ``request_id`` from the store.

    The exact-ID query hits the store's request-ID index, so
    cost is proportional to the one request's records.  Raises
    :class:`TraceError` when the store holds nothing for the ID — an
    unknown ID is an operator typo worth failing loudly on, not an
    empty tree.
    """
    records = store.search(Query(id_pattern=request_id))
    if not records:
        raise TraceError(
            f"no records for request ID {request_id!r} — wrong ID,"
            " cleared store, or the run predates span tracing"
        )
    return reconstruct_from_records(request_id, records)

"""Regression: span propagation survives Modify faults.

A Modify rule rewrites message payloads via ``request.copy()`` /
``response.copy()`` — if a copy ever dropped or detached headers, the
``X-Gremlin-Span-Id`` chain would break and traces of tampered
requests would come back as forests with orphan diagnostics.  These
tests tamper both directions on a two-hop chain and assert the causal
tree still reconstructs completely, with the modified edge correctly
attributed.
"""

from repro.agent.rules import modify
from repro.apps import build_tree_app
from repro.core import Gremlin
from repro.http.headers import SPAN_ID_HEADER
from repro.http.message import HttpRequest
from repro.loadgen import ClosedLoopLoad
from repro.logstore import Query
from repro.observability import reconstruct


def run_modified(rules, requests=3, depth=1, seed=23):
    app = build_tree_app(depth=depth)
    deployment = app.deploy(seed=seed)
    source = deployment.add_traffic_source("svc-0")
    gremlin = Gremlin(deployment)
    gremlin.orchestrator.apply(rules)
    ClosedLoopLoad(num_requests=requests, think_time=0.01).run(source)
    return deployment


class TestSpanSurvivesModify:
    def test_response_modify_keeps_trace_complete(self):
        # Depth-1 tree: user -> svc-0 -> {svc-1, svc-2}.
        deployment = run_modified([modify("svc-0", "svc-1", "ok", "tampered")])
        for n in (1, 2, 3):
            trace = reconstruct(deployment.store, f"test-{n}")
            assert trace.span_count == 3
            assert len(trace.roots) == 1
            assert trace.diagnostics == []
            assert all(span.complete for span in trace.spans)
        # The fault actually fired on the tampered edge.
        tampered = deployment.store.search(
            Query(src="svc-0", dst="svc-1", kind="reply")
        )
        assert tampered and all(r.fault_applied == "modify" for r in tampered)

    def test_request_modify_keeps_trace_complete(self):
        deployment = run_modified(
            [modify("user", "svc-0", "", "", on="request")], requests=2
        )
        for n in (1, 2):
            trace = reconstruct(deployment.store, f"test-{n}")
            assert trace.span_count == 3
            assert trace.diagnostics == []
            assert all(span.complete for span in trace.spans)

    def test_parent_child_span_links_survive(self):
        deployment = run_modified([modify("svc-0", "svc-2", "ok", "KO")], requests=1)
        trace = reconstruct(deployment.store, "test-1")
        (root,) = trace.roots
        assert root.span.edge == ("user", "svc-0")
        child_edges = sorted(node.span.edge for node in root.children)
        assert child_edges == [("svc-0", "svc-1"), ("svc-0", "svc-2")]
        for node in root.children:
            assert node.span.parent_span == root.span.span_id

    def test_modified_copy_preserves_span_header(self):
        # Unit-level pin of the mechanism: HttpRequest.copy() keeps
        # headers, so a Modify rewrite cannot lose the span ID.
        request = HttpRequest(
            method="GET", uri="/", headers={SPAN_ID_HEADER: "span-42"}, body=b"payload"
        )
        copy = request.copy()
        copy.body = b"tampered"
        assert copy.headers[SPAN_ID_HEADER] == "span-42"
        assert request.body == b"payload"

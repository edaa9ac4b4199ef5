"""Trace-header propagation through retry and timeout wrappers.

The retry loop re-issues a *copy* of the original request for each
attempt; if that copy dropped the trace headers, retried attempts
would appear in the log as anonymous traffic — unattributable to the
user request that caused them and invisible to trace reconstruction.
These tests pin the contract: the request ID survives every re-issued
attempt, each attempt becomes its own span, and all attempt spans
share the caller's span as their parent.
"""

from repro.agent.rules import abort, delay
from repro.core import Gremlin
from repro.http import HttpRequest, HttpResponse, REQUEST_ID_HEADER, SPAN_ID_HEADER
from repro.loadgen import ClosedLoopLoad
from repro.logstore import ObservationKind, Query
from repro.microservice import Application, PolicySpec, ServiceDefinition
from repro.tracing import SpanIdGenerator, propagate


def build_retry_app(max_retries=2, timeout=None):
    """front -> backend with a retrying (optionally timing-out) client."""

    def front_handler(ctx, request):
        yield from ctx.work()
        reply = yield from ctx.call(
            "backend", HttpRequest("GET", "/data"), parent=request
        )
        return HttpResponse(reply.status)

    def backend_handler(ctx, request):
        yield from ctx.work()
        return HttpResponse(200, body=b"ok")

    app = Application("retry-propagation")
    app.add_service(
        ServiceDefinition(
            "front",
            handler=front_handler,
            dependencies={
                "backend": PolicySpec(timeout=timeout, max_retries=max_retries)
            },
        )
    )
    app.add_service(ServiceDefinition("backend", handler=backend_handler))
    return app


def edge_requests(deployment, request_id):
    """The front->backend request records for one request ID, in order."""
    records = deployment.store.search(
        Query(src="front", dst="backend", kind=ObservationKind.REQUEST)
    )
    return [r for r in records if r.request_id == request_id]


class TestRetryPropagation:
    def test_request_id_survives_reissued_attempts(self):
        deployment = build_retry_app(max_retries=2).deploy(seed=7)
        source = deployment.add_traffic_source("front")
        gremlin = Gremlin(deployment)
        # Abort every front->backend message: all 3 attempts fail.
        gremlin.orchestrator.apply(
            [abort(src="front", dst="backend", error=503)]
        )
        ClosedLoopLoad(num_requests=1).run(source)
        attempts = edge_requests(deployment, "test-1")
        assert len(attempts) == 3  # initial + 2 retries
        assert all(r.request_id == "test-1" for r in attempts)

    def test_each_attempt_is_its_own_span_with_shared_parent(self):
        deployment = build_retry_app(max_retries=2).deploy(seed=7)
        source = deployment.add_traffic_source("front")
        gremlin = Gremlin(deployment)
        gremlin.orchestrator.apply(
            [abort(src="front", dst="backend", error=503)]
        )
        ClosedLoopLoad(num_requests=1).run(source)
        attempts = edge_requests(deployment, "test-1")
        span_ids = [r.span_id for r in attempts]
        assert len(set(span_ids)) == 3, "every retry attempt gets a fresh span"
        parents = {r.parent_span for r in attempts}
        assert len(parents) == 1, "all attempts share the caller's span as parent"
        # The shared parent is the user->front span for the same request.
        entry = [
            r
            for r in deployment.store.search(
                Query(src="user", dst="front", kind=ObservationKind.REQUEST)
            )
            if r.request_id == "test-1"
        ]
        assert len(entry) == 1
        assert parents == {entry[0].span_id}

    def test_timeout_reissue_preserves_trace_headers(self):
        deployment = build_retry_app(max_retries=1, timeout=0.05).deploy(seed=7)
        source = deployment.add_traffic_source("front")
        gremlin = Gremlin(deployment)
        # Delay far beyond the attempt timeout: the first attempt times
        # out client-side and the wrapper re-issues the call.
        gremlin.orchestrator.apply(
            [delay(src="front", dst="backend", interval=1.0)]
        )
        ClosedLoopLoad(num_requests=1, think_time=0.0).run(source)
        attempts = edge_requests(deployment, "test-1")
        assert len(attempts) == 2  # timed-out initial + 1 retry
        assert all(r.request_id == "test-1" for r in attempts)
        assert len({r.span_id for r in attempts}) == 2
        assert len({r.parent_span for r in attempts}) == 1


class TestPropagateUnit:
    def test_copies_both_trace_headers(self):
        incoming = HttpRequest("GET", "/in")
        incoming.headers[REQUEST_ID_HEADER] = "test-5"
        incoming.headers[SPAN_ID_HEADER] = "front-0#9"
        outgoing = propagate(incoming, HttpRequest("GET", "/out"))
        assert outgoing.headers[REQUEST_ID_HEADER] == "test-5"
        assert outgoing.headers[SPAN_ID_HEADER] == "front-0#9"

    def test_request_copy_preserves_trace_headers(self):
        # The retry loop re-issues request.copy(); a copy that dropped
        # headers would break attempt-level attribution.
        request = HttpRequest("GET", "/data")
        request.headers[REQUEST_ID_HEADER] = "test-5"
        request.headers[SPAN_ID_HEADER] = "front-0#9"
        duplicate = request.copy()
        assert duplicate.headers[REQUEST_ID_HEADER] == "test-5"
        assert duplicate.headers[SPAN_ID_HEADER] == "front-0#9"

    def test_span_ids_are_scoped_and_unique(self):
        a = SpanIdGenerator("svc-1-0")
        b = SpanIdGenerator("svc-2-0")
        assert a.next_id() == "svc-1-0#1"
        assert a.next_id() == "svc-1-0#2"
        assert b.next_id() == "svc-2-0#1"

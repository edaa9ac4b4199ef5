"""End-to-end observability against live deployments.

These tests drive the bundled tree app through a full run and assert
on what the observability stack recovers: complete causal trees, the
metrics the runtime hooks emit, fault attribution joined to the
installed rules.
"""

from repro.agent.rules import abort
from repro.apps import build_tree_app
from repro.core import Gremlin
from repro.loadgen import ClosedLoopLoad
from repro.observability import attribute_run, reconstruct


def run_tree(depth=2, requests=4, rules=None, seed=11):
    app = build_tree_app(depth=depth)
    deployment = app.deploy(seed=seed)
    source = deployment.add_traffic_source("svc-0")
    gremlin = Gremlin(deployment)
    if rules:
        gremlin.orchestrator.apply(rules)
    ClosedLoopLoad(num_requests=requests, think_time=0.01).run(source)
    return deployment


class TestLiveTraces:
    def test_healthy_request_reconstructs_full_tree(self):
        deployment = run_tree(depth=2)
        trace = reconstruct(deployment.store, "test-2")
        # Depth-2 binary tree: 7 services, so entry edge + 6
        # internal calls = 7 spans.
        assert trace.span_count == 7
        assert len(trace.roots) == 1
        assert trace.roots[0].span.edge == ("user", "svc-0")
        assert not trace.failed
        assert trace.diagnostics == []
        assert all(span.complete for span in trace.spans)

    def test_every_minted_request_is_traceable(self):
        deployment = run_tree(depth=2, requests=5)
        for n in range(1, 6):
            trace = reconstruct(deployment.store, f"test-{n}")
            assert trace.span_count == 7

    def test_fault_shows_up_in_trace_and_attribution(self):
        rule = abort(src="svc-0", dst="svc-1", error=503)
        deployment = run_tree(depth=2, rules=[rule])
        trace = reconstruct(deployment.store, "test-1")
        assert trace.failed
        faulted = trace.faulted_spans()
        assert [span.edge for span in faulted] == [("svc-0", "svc-1")]
        attributions = attribute_run(deployment.store, [rule])
        assert attributions
        assert all(a.rule_id == rule.rule_id for a in attributions)
        assert all(a.outcome == "status=500" for a in attributions)

    def test_absorbed_faults_are_skipped_by_default(self):
        # svc-1 is a leaf's parent; abort only some calls via
        # max_matches so unaffected requests stay clean.
        rule = abort(src="svc-0", dst="svc-1", error=503, max_matches=1)
        deployment = run_tree(depth=2, requests=4, rules=[rule])
        only_failed = attribute_run(deployment.store, [rule])
        everything = attribute_run(deployment.store, [rule], only_failed=False)
        assert len(only_failed) <= len(everything)
        assert len(everything) == 1  # max_matches=1 fired exactly once


class TestMetricsHooks:
    def test_request_and_fault_counters(self):
        rule = abort(src="svc-0", dst="svc-1", error=503)
        deployment = run_tree(depth=2, requests=4, rules=[rule])
        snap = deployment.metrics_snapshot()
        counters = snap["counters"]
        assert counters['gremlin_requests_total{dst="svc-0",src="user"}'] == 4
        assert (
            counters[
                'gremlin_faults_injected_total{dst="svc-1",fault="abort(503)",src="svc-0"}'
            ]
            == 4
        )
        series = 'gremlin_request_latency_seconds{dst="svc-0",src="user"}'
        assert snap["histograms"][series]["count"] == 4
        assert counters['service_requests_total{service="svc-0"}'] == 4

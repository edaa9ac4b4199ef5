"""Shadow-traffic mirroring: production request shapes, zero user impact.

Paper Section 1 positions Gremlin for "production or production-like
environments (e.g., shadow deployments)".  The agent's ``add_mirror``
duplicates production flows onto a destination's shadow (canary) pool
under fresh ``shadow-*`` request IDs, so faults scoped to those IDs
exercise real traffic shapes without users noticing.
"""

import pytest

from repro.agent import TCP_RESET, abort, delay, modify
from repro.apps import build_socialnetwork_app
from repro.core import HasTimeouts
from repro.errors import OrchestrationError
from repro.loadgen import ClosedLoopLoad
from repro.logstore import Query
from repro.microservice import Application, PolicySpec, ServiceDefinition, fanout_handler
from repro.observability.trace import reconstruct
from repro.tracing import RequestIdGenerator
from tests.integration.test_outcome_invariant import _with_shadow_pools


def build(shadow_instances=1, mirror_fraction=1.0, seed=201):
    app = Application("shadow-demo")
    app.add_service(
        ServiceDefinition(
            "ServiceA",
            handler=fanout_handler(["ServiceB"]),
            dependencies={"ServiceB": PolicySpec(timeout=1.0)},
        )
    )
    app.add_service(
        ServiceDefinition("ServiceB", canary_instances=shadow_instances)
    )
    deployment = app.deploy(seed=seed)
    source = deployment.add_traffic_source("ServiceA")
    agent = deployment.agents_of("ServiceA")[0]
    agent.add_mirror("ServiceB", fraction=mirror_fraction)
    return deployment, source, agent


def production_load(source, n=5):
    load = ClosedLoopLoad(num_requests=n, ids=RequestIdGenerator(prefix="user-"))
    load.run(source)
    return load.result


class TestMirroring:
    def test_production_requests_duplicated_to_shadow(self):
        deployment, source, agent = build()
        result = production_load(source)
        assert result.success_rate == 1.0
        production = deployment.production_instances_of("ServiceB")[0]
        shadow = deployment.canaries_of("ServiceB")[0]
        assert production.server.requests_served == 5
        assert shadow.server.requests_served == 5
        assert agent.mirrored == 5

    def test_shadow_observations_logged_with_shadow_ids(self):
        deployment, source, _agent = build()
        production_load(source, n=3)
        shadow_records = deployment.store.search(
            Query(kind="request", src="ServiceA", dst="ServiceB", id_pattern="shadow-*")
        )
        assert len(shadow_records) == 3
        assert all(record.request_id.startswith("shadow-user-") for record in shadow_records)

    def test_test_traffic_not_mirrored(self):
        deployment, source, agent = build()
        ClosedLoopLoad(num_requests=4).run(source)  # test-* IDs -> canary pool
        assert agent.mirrored == 0

    def test_faults_on_shadow_ids_spare_production(self):
        deployment, source, agent = build()
        agent.install_rule(abort("ServiceA", "ServiceB", error=503, pattern="shadow-*"))
        result = production_load(source)
        # Users unaffected; the mirrored copies were aborted pre-shadow.
        assert result.success_rate == 1.0
        shadow = deployment.canaries_of("ServiceB")[0]
        assert shadow.server.requests_served == 0
        aborted = deployment.store.search(
            Query(kind="request", id_pattern="shadow-*", with_faults_only=True)
        )
        assert len(aborted) == 5

    @pytest.mark.parametrize("error", [503, TCP_RESET])
    def test_an_aborted_shadow_copy_logs_its_reply(self, error):
        deployment, source, agent = build()
        agent.install_rule(abort("ServiceA", "ServiceB", error=error, pattern="shadow-*"))
        production_load(source)
        replies = deployment.store.search(
            Query(kind="reply", src="ServiceA", dst="ServiceB", id_pattern="shadow-*")
        )
        # Answered by the agent, as an aborted production call is.
        assert len(replies) == 5
        if error == TCP_RESET:
            expected = (None, "reset", True, "abort(reset)")
        else:
            expected = (error, None, True, f"abort({error})")
        assert [(r.status, r.error, r.gremlin_generated, r.fault_applied) for r in replies] == [
            expected
        ] * 5

    def test_shadow_delay_does_not_slow_users(self):
        deployment, source, agent = build()
        agent.install_rule(delay("ServiceA", "ServiceB", interval=2.0, pattern="shadow-*"))
        result = production_load(source)
        assert max(result.latencies) < 0.5  # users never wait on the shadow
        shadow = deployment.canaries_of("ServiceB")[0]
        assert shadow.server.requests_served == 5  # delivered, late

    def test_fraction_sampling(self):
        deployment, source, agent = build(mirror_fraction=0.5, seed=202)
        production_load(source, n=40)
        assert 10 <= agent.mirrored <= 30

    def test_no_shadow_pool_skips_quietly(self):
        deployment, source, agent = build(shadow_instances=0)
        result = production_load(source)
        assert result.success_rate == 1.0
        assert agent.mirrored == 0
        assert agent.mirror_skipped == 5

    def test_mirror_requires_route(self):
        deployment, _source, agent = build()
        with pytest.raises(OrchestrationError):
            agent.add_mirror("Unknown")

    def test_fraction_validated(self):
        deployment, _source, agent = build()
        with pytest.raises(OrchestrationError):
            agent.add_mirror("ServiceB", fraction=0.0)

    def test_remove_mirror(self):
        deployment, source, agent = build()
        agent.remove_mirror("ServiceB")
        production_load(source)
        assert agent.mirrored == 0

    def test_shadow_service_failure_invisible_to_users(self):
        deployment, source, _agent = build()
        for shadow in deployment.canaries_of("ServiceB"):
            shadow.stop()  # the shadow copy crashes outright
        result = production_load(source)
        assert result.success_rate == 1.0
        errors = deployment.store.search(Query(id_pattern="shadow-*", kind="reply"))
        assert all(record.error == "refused" for record in errors)

    def test_a_failed_shadow_copy_is_a_completed_call_not_a_hang(self):
        deployment, source, _agent = build()
        for shadow in deployment.canaries_of("ServiceB"):
            shadow.stop()
        production_load(source)
        requests = deployment.store.search(
            Query(kind="request", id_pattern="shadow-*", src="ServiceA", dst="ServiceB")
        )
        assert len(requests) == 5
        assert all(record.error == "refused" for record in requests)
        assert all(record.status == 503 for record in requests)
        result = HasTimeouts("ServiceB", "10s").run(deployment.store)
        assert result.passed, result.detail
        assert result.data["unanswered"] == 0


#: One response-direction rule of each kind, scoped to ``pattern``.
RESPONSE_RULES = {
    "delay": lambda pattern: delay("ServiceA", "ServiceB", "1s", pattern, on="response"),
    "abort": lambda pattern: abort("ServiceA", "ServiceB", 503, pattern, on="response"),
    "reset": lambda pattern: abort("ServiceA", "ServiceB", TCP_RESET, pattern, on="response"),
    "modify": lambda pattern: modify("ServiceA", "ServiceB", "ok", "KO", id_pattern=pattern),
}


def edge_outcomes(deployment, id_pattern):
    """``(status, error, fault_applied, gremlin_generated, injected_delay,
    latency)`` of the ServiceA -> ServiceB request records, then of the
    reply records."""
    return [
        [
            (r.status, r.error, r.fault_applied, r.gremlin_generated, r.injected_delay,
             None if r.latency is None else round(r.latency, 9))
            for r in deployment.store.search(
                Query(kind=kind, src="ServiceA", dst="ServiceB", id_pattern=id_pattern)
            )
        ]
        for kind in ("request", "reply")
    ]


def edge_metrics(deployment):
    """Requests counted, latencies observed and faults counted on the
    mirrored edge (a series never touched reads 0)."""
    labels = {"src": "ServiceA", "dst": "ServiceB"}
    snapshot = deployment.metrics.snapshot()
    requests = deployment.metrics.counter("gremlin_requests_total", **labels).value()
    latency = deployment.metrics.histogram("gremlin_request_latency_seconds", **labels)
    faults = sum(
        value for key, value in snapshot["counters"].items()
        if key.startswith("gremlin_faults_injected_total{")
    )
    return requests, latency.data()["count"], faults


@pytest.mark.usefixtures("deploys_on_lane")
class TestOnePath:
    """A mirrored copy is proxied as any call is: a rule means the same
    on a ``shadow-*`` copy as on ``test-*`` traffic."""

    @pytest.mark.parametrize("kind", sorted(RESPONSE_RULES))
    def test_a_response_rule_means_the_same_on_a_copy_as_on_test_traffic(self, kind):
        mirrored, source, agent = build()
        agent.install_rule(RESPONSE_RULES[kind]("shadow-*"))
        users = production_load(source)
        twin, twin_source, twin_agent = build()
        twin_agent.install_rule(RESPONSE_RULES[kind]("test-*"))
        ClosedLoopLoad(num_requests=5).run(twin_source)

        requests, replies = edge_outcomes(mirrored, "shadow-*")
        assert len(requests) == len(replies) == 5
        assert all(fault for _, _, fault, *_ in replies)
        assert [requests, replies] == edge_outcomes(twin, "test-*")
        # Production users see no fault.
        assert users.statuses == [200] * 5 and max(users.latencies) < 0.5
        requests, replies = edge_outcomes(mirrored, "user-*")
        assert not any(fault for _, _, fault, *_ in requests + replies)

    @pytest.mark.parametrize("rule", [None, "delay"])
    def test_a_mirrored_edge_counts_each_copy_as_a_request(self, rule):
        deployment, source, agent = build()
        if rule is not None:
            agent.install_rule(RESPONSE_RULES[rule]("shadow-*"))
        production_load(source)
        replies = deployment.store.search(Query(kind="reply", src="ServiceA", dst="ServiceB"))
        assert len(replies) == 10
        assert edge_metrics(deployment) == (10, 10, 0 if rule is None else 5)

    @pytest.mark.parametrize("mirror_removed", [False, True])
    def test_a_copy_never_reaches_production(self, mirror_removed):
        deployment, source, agent = build()
        agent.install_rule(delay("ServiceA", "ServiceB", "1s", pattern="shadow-*"))
        (canary,) = deployment.canaries_of("ServiceB")

        def shadow_pool_goes_away():
            yield deployment.sim.timeout(0.5)  # while the copies are held
            deployment.registry.deregister("ServiceB", canary.instance_id)
            if mirror_removed:
                agent.remove_mirror("ServiceB")

        deployment.sim.process(shadow_pool_goes_away())
        production_load(source)
        ClosedLoopLoad(num_requests=2).run(source)  # test-* still falls back to production

        production = deployment.production_instances_of("ServiceB")[0]
        assert production.server.requests_served == 5 + 2
        assert canary.server.requests_served == 0
        replies = deployment.store.search(
            Query(kind="reply", src="ServiceA", dst="ServiceB", id_pattern="shadow-*")
        )
        assert [(r.status, r.error) for r in replies] == [(503, "refused")] * 5


def test_a_shadow_copy_roots_its_own_trace(deploys_on_lane):
    deployment = _with_shadow_pools(build_socialnetwork_app()).deploy(seed=11)
    entry = deployment.graph.entry_services()[0]
    source = deployment.add_traffic_source(entry)
    agents = deployment.agents_of(entry)
    for agent in agents:
        for dst in deployment.graph.dependencies(entry):
            agent.add_mirror(dst)
    production_load(source, n=2)

    mirroring = {agent.owner_instance for agent in agents if agent.mirrored}
    shadow_ids = {
        r.request_id for r in deployment.store.search(Query(id_pattern="shadow-*"))
    }
    assert mirroring and len(shadow_ids) == sum(agent.mirrored for agent in agents) > 2
    for request_id in shadow_ids:
        trace = reconstruct(deployment.store, request_id)
        assert trace.diagnostics == [], request_id
        (root,) = trace.roots
        assert root.span.src == entry and root.span.src_instance in mirroring
        assert len(trace.spans) > 1  # the shadow's own downstream calls hang below

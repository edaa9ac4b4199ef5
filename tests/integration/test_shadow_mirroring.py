"""Shadow-traffic mirroring: production request shapes, zero user impact.

Paper Section 1 positions Gremlin for "production or production-like
environments (e.g., shadow deployments)".  The agent's ``add_mirror``
duplicates production flows onto a destination's shadow (canary) pool
under fresh ``shadow-*`` request IDs, so faults scoped to those IDs
exercise real traffic shapes without users noticing.
"""

import pytest

from repro.agent import TCP_RESET, abort, delay
from repro.core import HasTimeouts
from repro.errors import OrchestrationError
from repro.loadgen import ClosedLoopLoad
from repro.logstore import Query
from repro.microservice import Application, PolicySpec, ServiceDefinition, fanout_handler
from repro.tracing import RequestIdGenerator


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
        assert all(record.error == "shadow-error" for record in errors)

    def test_a_failed_shadow_copy_is_a_completed_call_not_a_hang(self):
        deployment, source, _agent = build()
        for shadow in deployment.canaries_of("ServiceB"):
            shadow.stop()
        production_load(source)
        requests = deployment.store.search(
            Query(kind="request", id_pattern="shadow-*", src="ServiceA", dst="ServiceB")
        )
        assert len(requests) == 5
        assert all(record.error == "shadow-error" for record in requests)
        assert all(record.status is None for record in requests)
        result = HasTimeouts("ServiceB", "10s").run(deployment.store)
        assert result.passed, result.detail
        assert result.data["unanswered"] == 0

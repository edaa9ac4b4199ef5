"""Direction-specific fault semantics: request vs. response rules."""

import pytest

from repro.agent import TCP_RESET, abort, delay, modify
from repro.apps import build_twotier
from repro.http import HttpRequest
from repro.logstore import ObservationKind, Query
from repro.microservice import PolicySpec
from repro.simulation import Simulator


def deploy(seed=161):
    deployment = build_twotier(policy=PolicySpec(timeout=10.0)).deploy(seed=seed)
    source = deployment.add_traffic_source("ServiceA")
    return deployment, source


def one_call(deployment, source, rid="test-1"):
    sim = deployment.sim
    box = {}

    def scenario(sim):
        request = HttpRequest("GET", "/api")
        request.request_id = rid
        start = sim.now
        try:
            response = yield from source.client.call(request)
            box["status"] = response.status
        except Exception as exc:  # noqa: BLE001
            box["status"] = type(exc).__name__
        box["elapsed"] = sim.now - start

    sim.process(scenario(sim))
    sim.run()
    return box


def agent_a(deployment):
    return deployment.agents_of("ServiceA")[0]


class TestResponseDirectionAbort:
    def test_request_reaches_service_but_reply_replaced(self):
        deployment, source = deploy()
        agent_a(deployment).install_rule(
            abort("ServiceA", "ServiceB", error=503, on="response")
        )
        outcome = one_call(deployment, source)
        assert outcome["status"] == 500  # A saw the synthesized 503
        # Crucially, ServiceB really processed the request — the failure
        # hit the *response path* (the Twilio double-charge mechanism).
        assert deployment.instances_of("ServiceB")[0].server.requests_served == 1

    def test_response_reset(self):
        deployment, source = deploy()
        agent_a(deployment).install_rule(
            abort("ServiceA", "ServiceB", error=TCP_RESET, on="response")
        )
        outcome = one_call(deployment, source)
        assert outcome["status"] == 500
        replies = deployment.store.search(Query(kind="reply", src="ServiceA", dst="ServiceB"))
        assert replies[0].error == "reset"
        assert deployment.instances_of("ServiceB")[0].server.requests_served == 1


class TestBothDirections:
    def test_request_and_response_delays_accumulate(self):
        deployment, source = deploy()
        agent = agent_a(deployment)
        agent.install_rule(delay("ServiceA", "ServiceB", interval=0.5, on="request"))
        agent.install_rule(delay("ServiceA", "ServiceB", interval=0.7, on="response"))
        outcome = one_call(deployment, source)
        assert outcome["status"] == 200
        assert outcome["elapsed"] == pytest.approx(1.2, abs=0.1)
        reply = deployment.store.search(Query(kind="reply", src="ServiceA", dst="ServiceB"))[0]
        assert reply.injected_delay == pytest.approx(1.2)
        assert reply.fault_applied == "delay(0.5)+delay(0.7)"

    def test_request_direction_modify(self):
        deployment, source = deploy()
        captured = {}

        # Wrap ServiceA's handler to capture the body it receives; the
        # Modify rule sits on the user -> ServiceA edge (the source's
        # sidecar), which is the hop carrying the payload.
        instance = deployment.instances_of("ServiceA")[0]
        original = instance.definition.handler

        def spying(ctx, request):
            captured["body"] = request.body
            result = yield from original(ctx, request)
            return result

        instance.definition.handler = spying

        source.agent.install_rule(
            modify("user", "ServiceA", pattern="secret", replace_bytes="REDACTED",
                   on="request", id_pattern="test-*")
        )
        sim = deployment.sim

        def scenario(sim):
            request = HttpRequest("POST", "/api", body=b"payload=secret")
            request.request_id = "test-1"
            yield from source.client.call(request)

        sim.process(scenario(sim))
        sim.run()
        assert captured["body"] == b"payload=REDACTED"


class TestHeldRequestRecord:
    """A request held by a request-direction Delay is stamped with its
    arrival at the sidecar and stored only once the hold ends, so it
    lands behind records of traffic that overtook it."""

    def run(self, lane, rules):
        deployment = build_twotier(policy=PolicySpec(timeout=10.0)).deploy(
            sim=Simulator(seed=161, scheduler=lane)
        )
        source = deployment.add_traffic_source("ServiceA")
        for rule in rules:
            agent_a(deployment).install_rule(rule)
        store, sim = deployment.store, deployment.sim
        landed = {}
        append = store.append

        def spying_append(record):
            if record.kind == ObservationKind.REQUEST and record.dst == "ServiceB":
                landed[record.request_id] = sim.now
            append(record)

        store.append = spying_append

        def send(sim, rid, at):
            yield sim.timeout(at)
            request = HttpRequest("GET", "/api")
            request.request_id = rid
            yield from source.client.call(request)

        sim.process(send(sim, "held-1", 0.0))
        sim.process(send(sim, "free-1", 0.5))
        sim.run()
        held_query = Query(kind=ObservationKind.REQUEST, src="ServiceA", dst="ServiceB")
        return store, held_query, landed

    def test_stamp_is_the_arrival_and_the_record_lands_after_the_hold(self, lane):
        store, query, landed = self.run(lane, [delay("ServiceA", "ServiceB", 2.0, pattern="held-*")])
        held, free = store.search(query)
        assert (held.request_id, free.request_id) == ("held-1", "free-1")
        assert held.fault_applied == "delay(2)" and held.injected_delay == 2.0
        # Stamped when the sidecar took the request: the same instant as
        # on a run without the rule.
        _, _, unheld_landed = self.run(lane, [])
        assert held.timestamp == unheld_landed["held-1"]
        # Stored at the end of the hold, after a later-stamped record.
        assert landed["held-1"] == held.timestamp + 2.0
        assert landed["free-1"] == free.timestamp
        assert held.timestamp < free.timestamp < landed["held-1"]

    def test_a_window_around_the_arrival_returns_it_once_drained(self, lane):
        store, query, _ = self.run(lane, [delay("ServiceA", "ServiceB", 2.0, pattern="held-*")])
        held, free = store.search(query)
        window = Query(since=held.timestamp, until=held.timestamp)
        assert store.search(window) == [held]
        assert store.search(Query(src="ServiceA", until=free.timestamp))[-2:] == [held, free]
        records = store.all_records()
        assert [r.timestamp for r in records] == sorted(r.timestamp for r in records)

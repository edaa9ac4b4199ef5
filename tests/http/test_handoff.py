"""Who owns a message after it is sent.

A sender that owns a message hands it over; the receiver may then
rewrite it, and the sender never reads it again.  The client's send is
the exception: it keeps re-sending one request object, so what it sends
is a snapshot.  These cases pin what callers and the log see when a
handler rewrites what it received, when a handler answers every request
with one shared response, under Modify rewrites, and for a raw peer
that speaks bytes.
"""

import dataclasses

import pytest

from repro.agent import abort, modify
from repro.agent.rules import fresh_rule_ids
from repro.http import REQUEST_ID_HEADER, HttpRequest, HttpResponse, decode, encode
from repro.microservice import Application, PolicySpec, ServiceDefinition

#: Every scenario here runs on both scheduler lanes.
pytestmark = pytest.mark.usefixtures("deploys_on_lane")


def relay(ctx, request):
    """The caller: one call to the callee, whose answer it reports."""
    yield from ctx.work()
    downstream = HttpRequest("POST", "/work", body=b"payload")
    response = yield from ctx.call("Callee", downstream, parent=request)
    report = f"{response.status}|{response.request_id}|".encode() + response.body
    return HttpResponse(200, body=report)


def deploy(callee):
    app = Application("handoff")
    app.add_service(
        ServiceDefinition("Caller", handler=relay, dependencies={"Callee": PolicySpec.naive()})
    )
    app.add_service(ServiceDefinition("Callee", handler=callee))
    return app.deploy(seed=5)


def drive(deployment, requests=4):
    """Send tagged requests one after the other; the caller's replies."""
    source = deployment.add_traffic_source("Caller")
    sim = deployment.sim
    replies = []

    def sequence(sim):
        for index in range(requests):
            request = HttpRequest("GET", "/go")
            request.request_id = f"test-{index}"
            response = yield from source.client.call(request)
            replies.append((response.status, response.body))

    sim.process(sequence(sim))
    sim.run()
    return replies


def records(deployment):
    return [dataclasses.asdict(record) for record in deployment.store.all_records()]


def sidecar(deployment):
    """The caller's sidecar, which proxies every call to the callee."""
    return deployment.agents_of("Caller")[0]


def install(deployment, primitive, **arguments):
    """Install ``primitive("Caller", "Callee", ...)`` as rule #1."""
    with fresh_rule_ids():
        sidecar(deployment).install_rule(primitive("Caller", "Callee", **arguments))


def answers_ok(ctx, request):
    yield from ctx.work()
    return HttpResponse(200, body=b"ok:" + request.body)


def rewrites_what_it_received(ctx, request):
    yield from ctx.work()
    request.headers[REQUEST_ID_HEADER] = "rewritten-by-the-callee"
    request.headers["X-Scribble"] = "yes"
    request.body = b"scribbled"
    return HttpResponse(200, body=b"ok:" + request.body)


class TestACalleeRewritesItsRequest:
    def test_a_response_abort_answers_with_the_original_request_id(self):
        expected = [
            (200, f"503|test-{index}|injected by gremlin rule #1".encode()) for index in range(4)
        ]
        logs = []
        for callee in (answers_ok, rewrites_what_it_received):
            deployment = deploy(callee)
            install(deployment, abort, error=503, on="response")
            assert drive(deployment) == expected
            logs.append(records(deployment))
        plain, rewritten = logs
        assert rewritten == plain
        replies = [r for r in plain if r["kind"] == "reply" and r["dst"] == "Callee"]
        assert [(r["request_id"], r["status"], r["gremlin_generated"]) for r in replies] == [
            (f"test-{index}", 503, True) for index in range(4)
        ]

    def test_without_a_fault_the_callee_echo_carries_its_rewrite(self):
        deployment = deploy(rewrites_what_it_received)
        assert drive(deployment, requests=2) == [
            (200, b"200|rewritten-by-the-callee|ok:scribbled")
        ] * 2


def answers_with(shared):
    """A handler that answers every request with the one ``shared`` response."""

    def handler(ctx, request):
        yield from ctx.work()
        return shared

    return handler


def answers_fresh(ctx, request):
    yield from ctx.work()
    return HttpResponse(200, body=b"shared")


class TestAHandlerAnswersWithOneSharedResponse:
    def run(self, callee):
        deployment = deploy(callee)
        install(
            deployment, modify, pattern="shared", replace_bytes="SHARED",
            id_pattern="test-*", max_matches=2,
        )
        return drive(deployment, requests=5), records(deployment)

    def test_statuses_bodies_and_records_are_what_fresh_responses_give(self):
        shared = HttpResponse(200, body=b"shared")
        shared_replies, shared_records = self.run(answers_with(shared))
        fresh_replies, fresh_records = self.run(answers_fresh)
        # The server echoes the request ID into the handler's response, so
        # one shared response carries the first ID it echoed from then on.
        assert shared_replies == [
            (200, f"200|test-0|{body}".encode())
            for body in ["SHARED", "SHARED", "shared", "shared", "shared"]
        ]
        assert fresh_replies == [
            (200, f"200|test-{index}|{body}".encode())
            for index, body in enumerate(["SHARED", "SHARED", "shared", "shared", "shared"])
        ]
        assert shared_records == fresh_records
        # A Modify rewrites a copy: the handler's response is as it made it.
        assert (shared.status, shared.body, shared.request_id) == (200, b"shared", "test-0")


class TestRewritesStillArrive:
    def test_a_request_modify_reaches_the_callee(self):
        deployment = deploy(answers_ok)
        install(deployment, modify, pattern="pay", replace_bytes="PAY", on="request",
                id_pattern="test-*")
        assert drive(deployment, requests=2) == [
            (200, b"200|test-0|ok:PAYload"),
            (200, b"200|test-1|ok:PAYload"),
        ]

    def test_a_fake_success_rewrites_the_answer(self):
        deployment = deploy(answers_ok)
        install(deployment, modify, pattern="ok", replace_bytes="badkey", id_pattern="test-*")
        assert drive(deployment, requests=2) == [
            (200, b"200|test-0|badkey:payload"),
            (200, b"200|test-1|badkey:payload"),
        ]
        replies = [r for r in records(deployment) if r["kind"] == "reply" and r["dst"] == "Callee"]
        assert [r["fault_applied"] for r in replies] == ["modify", "modify"]


class TestARawPeerSpeaksBytes:
    def exchange(self, deployment, address, host, request):
        sim = deployment.sim
        got = []

        def peer(sim):
            conn = yield host.connect(address)
            conn.send(encode(request))
            got.append((yield conn.recv()))
            conn.close()

        sim.process(peer(sim))
        sim.run()
        (unit,) = got
        return unit

    def request(self):
        request = HttpRequest("POST", "/raw", body=b"raw")
        request.request_id = "test-raw"
        return request

    @pytest.mark.parametrize("fault", [None, "abort"])
    def test_the_sidecar_answers_bytes(self, fault):
        deployment = deploy(answers_ok)
        agent = sidecar(deployment)
        if fault:
            install(deployment, abort, error=503, on="response")
        unit = self.exchange(deployment, agent.route_address("Callee"), agent.host, self.request())
        assert type(unit) is bytes
        response = decode(unit)
        if fault:
            assert (response.status, response.body) == (503, b"injected by gremlin rule #1")
        else:
            assert (response.status, response.body) == (200, b"ok:raw")
        assert response.request_id == "test-raw"
        assert list(response.headers)[-1] == "Content-Length"
        assert encode(response) == unit

    def test_the_server_answers_bytes(self):
        deployment = deploy(answers_ok)
        (callee,) = deployment.instances["Callee"]
        agent = sidecar(deployment)
        unit = self.exchange(deployment, callee.address, agent.host, self.request())
        assert type(unit) is bytes
        response = decode(unit)
        assert (response.status, response.body, response.request_id) == (200, b"ok:raw", "test-raw")
        assert encode(response) == unit

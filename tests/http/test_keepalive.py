"""Keep-alive behaviour: several exchanges over one connection."""

import pytest

from repro.agent import TCP_RESET, abort
from repro.errors import ConnectionResetError_
from repro.http import HttpResponse, HttpServer, decode_response, encode_request, HttpRequest
from repro.microservice import Application, PolicySpec, ServiceDefinition
from repro.network import Address, Network
from repro.simulation import Simulator

from tests.conftest import run_to_completion, sim_on_lane as sim


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


class TestKeepAlive:
    def test_sequential_requests_one_connection(self, sim, net):
        host = net.add_host("server")
        hits = []

        def handler(request):
            yield sim.timeout(0.001)
            hits.append(request.uri)
            return HttpResponse(200, body=request.uri.encode())

        HttpServer(host, 80, handler).start()
        client_host = net.add_host("client")

        def scenario(sim):
            conn = yield client_host.connect(Address("server", 80))
            bodies = []
            for index in range(3):
                conn.send(encode_request(HttpRequest("GET", f"/req{index}")))
                payload = yield conn.recv()
                bodies.append(decode_response(payload).body)
            conn.close()
            return bodies

        bodies = run_to_completion(sim, scenario(sim))
        assert bodies == [b"/req0", b"/req1", b"/req2"]
        assert hits == ["/req0", "/req1", "/req2"]

    def test_interleaved_connections_do_not_cross_streams(self, sim, net):
        host = net.add_host("server")

        def handler(request):
            # Slow down the first stream so replies would cross if the
            # server mixed connections up.
            delay = 0.05 if request.uri == "/slow" else 0.001
            yield sim.timeout(delay)
            return HttpResponse(200, body=request.uri.encode())

        HttpServer(host, 80, handler).start()
        client_host = net.add_host("client")
        results = {}

        def one(sim, uri):
            conn = yield client_host.connect(Address("server", 80))
            conn.send(encode_request(HttpRequest("GET", uri)))
            payload = yield conn.recv()
            results[uri] = decode_response(payload).body
            conn.close()

        sim.process(one(sim, "/slow"))
        sim.process(one(sim, "/fast"))
        sim.run()
        assert results == {"/slow": b"/slow", "/fast": b"/fast"}

    def test_pipelined_requests_answered_in_order(self, sim, net):
        """Two requests sent before reading any reply: the per-connection
        server loop answers them strictly in order."""
        host = net.add_host("server")

        def handler(request):
            yield sim.timeout(0.01)
            return HttpResponse(200, body=request.uri.encode())

        HttpServer(host, 80, handler).start()
        client_host = net.add_host("client")

        def scenario(sim):
            conn = yield client_host.connect(Address("server", 80))
            conn.send(encode_request(HttpRequest("GET", "/first")))
            conn.send(encode_request(HttpRequest("GET", "/second")))
            replies = []
            for _ in range(2):
                payload = yield conn.recv()
                replies.append(decode_response(payload).body)
            conn.close()
            return replies

        assert run_to_completion(sim, scenario(sim)) == [b"/first", b"/second"]

    def test_slow_first_request_holds_back_the_second(self, sim, net):
        """Equal handler times cannot tell a per-connection server from
        one that starts a handler per arriving request: this can.  The
        second request is in the server's hands 49 ms before the first is
        answered, and its handler still does not start until then."""
        host = net.add_host("server")
        trace = []

        def handler(request):
            trace.append(("start", request.uri, sim.now))
            yield sim.timeout(0.05 if request.uri == "/first" else 0.001)
            trace.append(("answer", request.uri, sim.now))
            return HttpResponse(200, body=request.uri.encode())

        server = HttpServer(host, 80, handler).start()
        client_host = net.add_host("client")

        def scenario(sim):
            conn = yield client_host.connect(Address("server", 80))
            conn.send(encode_request(HttpRequest("GET", "/first")))
            conn.send(encode_request(HttpRequest("GET", "/second")))
            replies = []
            for _ in range(2):
                payload = yield conn.recv()
                replies.append(decode_response(payload).body)
            conn.close()
            return replies

        assert run_to_completion(sim, scenario(sim)) == [b"/first", b"/second"]
        assert [(what, uri) for what, uri, _ in trace] == [
            ("start", "/first"),
            ("answer", "/first"),
            ("start", "/second"),
            ("answer", "/second"),
        ]
        assert trace[2][2] == trace[1][2]  # taken up the instant the first is answered
        assert server.requests_served == 2

    def test_requests_served_counts_answered_exchanges_only(self, sim, net):
        """Three pipelined requests, and the client hangs up after reading
        two replies: the third handler runs, finds the connection closed,
        and its exchange is neither answered nor counted."""
        host = net.add_host("server")
        handled = []

        def handler(request):
            handled.append(request.uri)
            yield sim.timeout(0.01)
            return HttpResponse(200, body=request.uri.encode())

        server = HttpServer(host, 80, handler).start()
        client_host = net.add_host("client")

        def scenario(sim):
            conn = yield client_host.connect(Address("server", 80))
            for index in range(3):
                conn.send(encode_request(HttpRequest("GET", f"/req{index}")))
            bodies = []
            for _ in range(2):
                bodies.append(decode_response((yield conn.recv())).body)
            conn.close()
            return bodies

        assert run_to_completion(sim, scenario(sim)) == [b"/req0", b"/req1"]
        assert handled == ["/req0", "/req1", "/req2"]
        assert server.requests_served == 2


class TestKeepAliveThroughSidecar:
    """A raw peer pipelining on one connection to a sidecar route."""

    @pytest.fixture
    def deployed(self, lane):
        """The deployment, and the trace back's handler writes."""
        trace = []

        def back(ctx, request):
            trace.append(("start", request.uri))
            yield ctx.sleep(0.05 if request.uri == "/first" else 0.001)
            trace.append(("answer", request.uri))
            return HttpResponse(200, body=request.uri.encode())

        app = Application("pipelined")
        app.add_service(ServiceDefinition("front", dependencies={"back": PolicySpec.naive()}))
        app.add_service(ServiceDefinition("back", handler=back))
        return app.deploy(sim=Simulator(seed=7, scheduler=lane)), trace

    @staticmethod
    def pipeline(deployment, uris, gap=0.0):
        """Send ``uris`` down one connection to front's route to back,
        ``gap`` apart, then read as many answers."""
        front = deployment.instances_of("front")[0]
        route = deployment.agents_of("front")[0].route_address("back")
        sim = deployment.sim

        def raw_peer(sim):
            conn = yield front.host.connect(route)
            for index, uri in enumerate(uris):
                if index and gap:
                    yield sim.timeout(gap)
                request = HttpRequest("GET", uri)
                request.request_id = "test-1"
                conn.send(encode_request(request))
            bodies = []
            for _ in uris:
                bodies.append(decode_response((yield conn.recv())).body)
            conn.close()
            return bodies

        return run_to_completion(sim, raw_peer(sim))

    def test_slow_first_request_holds_back_the_second(self, deployed):
        deployment, trace = deployed
        assert self.pipeline(deployment, ["/first", "/second"]) == [b"/first", b"/second"]
        assert trace == [
            ("start", "/first"),
            ("answer", "/first"),
            ("start", "/second"),
            ("answer", "/second"),
        ]
        agent = deployment.agents_of("front")[0]
        assert agent.proxied == 2
        assert deployment.instances_of("back")[0].server.requests_served == 2

    def test_request_arriving_after_the_sidecar_reset_is_dropped(self, deployed):
        """An ``Abort`` reset closes the sidecar's end of the caller's
        connection; the request the caller had already put on the wire
        arrives at a closed end and is proxied by nobody."""
        deployment, trace = deployed
        agent = deployment.agents_of("front")[0]
        agent.install_rule(abort("front", "back", error=TCP_RESET, pattern="test-*"))
        # 15 µs apart on a 10 µs loopback: the second request leaves
        # before the reset reaches the caller and lands after it was made.
        with pytest.raises(ConnectionResetError_):
            self.pipeline(deployment, ["/first", "/second"], gap=0.000015)
        assert agent.proxied == 1
        assert trace == []

"""Integration tests: HttpClient against HttpServer over the transport."""

import pytest

from repro.errors import (
    CodecError,
    ConnectionRefusedError_,
    RequestTimeoutError,
)
from repro.http import HttpClient, HttpRequest, HttpResponse, HttpServer, encode_request
from repro.network import Address, Network

from tests.conftest import run_to_completion


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


def make_server(sim, net, name="server", port=80, service_time=0.01, status=200):
    host = net.add_host(name)

    def handler(request):
        yield sim.timeout(service_time)
        return HttpResponse(status, body=b"echo:" + request.uri.encode())

    server = HttpServer(host, port, handler).start()
    return host, server


class TestBasicExchange:
    def test_get_round_trip(self, sim, net):
        make_server(sim, net)
        client_host = net.add_host("client")
        client = HttpClient(client_host)

        def scenario(sim):
            response = yield from client.get(Address("server", 80), "/hello")
            return (response.status, response.body)

        assert run_to_completion(sim, scenario(sim)) == (200, b"echo:/hello")

    def test_sequential_requests_same_client(self, sim, net):
        make_server(sim, net)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            statuses = []
            for index in range(3):
                response = yield from client.get(Address("server", 80), f"/{index}")
                statuses.append(response.status)
            return statuses

        assert run_to_completion(sim, scenario(sim)) == [200, 200, 200]

    def test_concurrent_clients(self, sim, net):
        make_server(sim, net, service_time=0.05)
        done = []

        def one_client(sim, name):
            client = HttpClient(net.add_host(name))
            response = yield from client.get(Address("server", 80), "/x")
            done.append((name, response.status, sim.now))

        for index in range(4):
            sim.process(one_client(sim, f"c{index}"))
        sim.run()
        assert len(done) == 4
        # All four served concurrently: everyone finishes ~at the same time.
        finish_times = {round(t, 3) for _n, _s, t in done}
        assert len(finish_times) == 1

    def test_request_id_echoed(self, sim, net):
        make_server(sim, net)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            request = HttpRequest("GET", "/x")
            request.request_id = "test-55"
            response = yield from client.call(Address("server", 80), request)
            return response.request_id

        assert run_to_completion(sim, scenario(sim)) == "test-55"

    def test_server_counts_requests(self, sim, net):
        _host, server = make_server(sim, net)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            for _ in range(5):
                yield from client.get(Address("server", 80), "/x")

        run_to_completion(sim, scenario(sim))
        assert server.requests_served == 5


class TestTimeouts:
    def test_per_call_timeout(self, sim, net):
        make_server(sim, net, service_time=1.0)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/slow", timeout=0.1)
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.1)

    def test_default_timeout_from_client(self, sim, net):
        make_server(sim, net, service_time=1.0)
        client = HttpClient(net.add_host("client"), default_timeout=0.2)

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/slow")
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.2)

    def test_no_timeout_waits_forever_shape(self, sim, net):
        """Without a timeout the client waits out the full service time
        — the Fig 5 anti-pattern."""
        make_server(sim, net, service_time=3.0)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            response = yield from client.get(Address("server", 80), "/slow")
            return (response.status, sim.now)

        status, now = run_to_completion(sim, scenario(sim))
        assert status == 200
        assert now == pytest.approx(3.004)

    def test_timeout_covers_connect_phase(self, sim, net):
        net.add_host("server")  # host exists, nothing listening... use partition
        client_host = net.add_host("client")
        net.partition("client", "server")
        client = HttpClient(client_host)

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/x", timeout=0.5)
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.5)


class TestErrorPaths:
    def test_refused_connection_surfaces(self, sim, net):
        net.add_host("server")
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/x")
            except ConnectionRefusedError_:
                return "refused"

        assert run_to_completion(sim, scenario(sim)) == "refused"

    def test_handler_exception_becomes_500(self, sim, net):
        host = net.add_host("server")

        def broken_handler(request):
            yield sim.timeout(0.001)
            raise RuntimeError("bug in business logic")

        HttpServer(host, 80, broken_handler).start()
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            response = yield from client.get(Address("server", 80), "/x")
            return (response.status, b"RuntimeError" in response.body)

        assert run_to_completion(sim, scenario(sim)) == (500, True)

    def test_handler_returning_wrong_type_becomes_500(self, sim, net):
        host = net.add_host("server")

        def bad_handler(request):
            yield sim.timeout(0.001)
            return "not a response"

        HttpServer(host, 80, bad_handler).start()
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            response = yield from client.get(Address("server", 80), "/x")
            return response.status

        assert run_to_completion(sim, scenario(sim)) == 500

    def test_malformed_request_becomes_400(self, sim, net):
        make_server(sim, net)

        def scenario(sim):
            host = net.add_host("rawclient")
            conn = yield host.connect(Address("server", 80))
            conn.send(b"garbage that is not HTTP\r\n\r\n")
            payload = yield conn.recv()
            return payload.split(b" ")[1]

        assert run_to_completion(sim, scenario(sim)) == b"400"

    def test_request_the_codec_would_mangle_still_becomes_400(self, sim, net):
        """A URI with a space is not provably round-trip clean, so it
        travels as bytes and fails in the server's parser, as ever."""
        make_server(sim, net)
        client = HttpClient(net.add_host("client"))
        request = HttpRequest("GET", "/x")
        request.uri = "/two words"

        def scenario(sim):
            response = yield from client.call(Address("server", 80), request)
            return (response.status, b"malformed request line" in response.body)

        assert run_to_completion(sim, scenario(sim)) == (400, True)

    def test_request_that_cannot_be_serialised_fails_at_the_sender(self, sim, net):
        make_server(sim, net)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/caf\xe9")
            except UnicodeEncodeError:
                return "sender"

        assert run_to_completion(sim, scenario(sim)) == "sender"

    @pytest.mark.parametrize("form", ["parsed", "bytes"])
    def test_request_where_a_response_is_expected_is_a_codec_error(self, sim, net, form):
        listener = net.add_host("confused").listen(80)

        def answers_with_a_request(sim):
            end = yield listener.accept()
            yield end.recv()
            if form == "parsed":
                end.send_parsed(HttpRequest("GET", "/not-a-response"))
            else:
                end.send(encode_request(HttpRequest("GET", "/not-a-response")))

        sim.process(answers_with_a_request(sim))
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("confused", 80), "/x")
            except CodecError as exc:
                return str(exc)

        assert "malformed status line" in run_to_completion(sim, scenario(sim))

    def test_server_stop_refuses_new_connections(self, sim, net):
        _host, server = make_server(sim, net)
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            first = yield from client.get(Address("server", 80), "/x")
            server.stop()
            try:
                yield from client.get(Address("server", 80), "/x")
            except ConnectionRefusedError_:
                return first.status

        assert run_to_completion(sim, scenario(sim)) == 200

"""Edge cases for the HTTP client's deadline handling."""

import pytest

from repro.apps import build_twotier
from repro.errors import RequestTimeoutError
from repro.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.http.client import await_with_deadline
from repro.network import Address, Network

from tests.conftest import run_to_completion, sim_on_lane as sim


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


def record_processes(sim):
    """Every process started on ``sim`` from now on, in start order."""
    started = []
    start = sim.process

    def process(generator, name=None):
        started.append(start(generator, name=name))
        return started[-1]

    sim.process = process
    return started


class TestAwaitWithDeadline:
    def test_no_deadline_waits_indefinitely(self, sim):
        def proc(sim):
            ev = sim.timeout(100.0, value="eventually")
            value = yield from await_with_deadline(sim, ev, None)
            return (value, sim.now)

        assert run_to_completion(sim, proc(sim)) == ("eventually", 100.0)

    def test_deadline_already_past_raises_immediately(self, sim):
        def proc(sim):
            yield sim.timeout(5.0)
            ev = sim.event()
            try:
                yield from await_with_deadline(sim, ev, 2.0)  # in the past
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, proc(sim)) == 5.0

    def test_event_failure_propagates_not_timeout(self, sim):
        def proc(sim):
            ev = sim.event()
            sim.timeout(0.1).add_callback(lambda _e: ev.fail(OSError("broken")))
            try:
                yield from await_with_deadline(sim, ev, sim.now + 10.0)
            except OSError:
                return "event failure"

        assert run_to_completion(sim, proc(sim)) == "event failure"

    def test_exact_tie_resolves_deterministically(self, sim):
        """Event and deadline at the same instant: the event was
        scheduled first, so FIFO ordering lets it win."""

        def proc(sim):
            ev = sim.timeout(1.0, value="photo finish")
            value = yield from await_with_deadline(sim, ev, sim.now + 1.0)
            return value

        assert run_to_completion(sim, proc(sim)) == "photo finish"


class TestClientConnectionHygiene:
    def test_timed_out_call_leaves_no_dangling_reply(self, sim, net):
        """After a timeout, the late server reply is dropped and the
        next call gets its own fresh exchange."""
        host = net.add_host("server")
        calls = {"n": 0}

        def handler(request):
            calls["n"] += 1
            delay = 1.0 if calls["n"] == 1 else 0.001
            yield sim.timeout(delay)
            return HttpResponse(200, body=f"reply-{calls['n']}".encode())

        HttpServer(host, 80, handler).start()
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/slow", timeout=0.1)
            except RequestTimeoutError:
                pass
            response = yield from client.get(Address("server", 80), "/fast")
            return response.body

        assert run_to_completion(sim, scenario(sim)) == b"reply-2"

    def test_zero_timeout_rejected_by_timeout_event(self, sim, net):
        host = net.add_host("server")
        HttpServer(host, 80, lambda request: iter(())).start()
        client = HttpClient(net.add_host("client"))

        def scenario(sim):
            try:
                yield from client.get(Address("server", 80), "/x", timeout=0.0)
            except RequestTimeoutError:
                return "rejected fast"

        # A 0-second budget expires during the connect phase.
        assert run_to_completion(sim, scenario(sim)) == "rejected fast"

    def test_connect_abandoned_by_its_deadline_parks_no_process(self, sim, net):
        """The deadline fires mid-handshake, the handshake still completes,
        and the client never gets an end it could close.  A server that
        started a process per connection left that process blocked in
        ``recv()`` for the rest of the simulation."""
        host = net.add_host("server")
        server = HttpServer(host, 80, lambda request: iter(())).start()
        client = HttpClient(net.add_host("client"))
        started = record_processes(sim)

        def scenario(sim):
            request = HttpRequest("GET", "/x")
            try:
                yield from client.call(Address("server", 80), request, timeout=0.0005)
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.0005)
        assert sim.now == pytest.approx(0.002)  # the orphaned handshake did complete
        assert [process.name for process in started if process.is_alive] == []
        assert server.requests_served == 0

    def test_connect_to_a_sidecar_abandoned_by_its_deadline_parks_no_process(self):
        deployment = build_twotier().deploy(seed=3)
        sim = deployment.sim
        front = deployment.instances_of("ServiceA")[0]
        agent = deployment.agents_of("ServiceA")[0]
        client = HttpClient(front.host)
        started = record_processes(sim)

        def scenario(sim):
            request = HttpRequest("GET", "/x")
            try:
                # Half of the 20 µs loopback handshake.
                yield from client.call(agent.route_address("ServiceB"), request, timeout=0.00001)
            except RequestTimeoutError:
                return "abandoned"

        assert run_to_completion(sim, scenario(sim)) == "abandoned"
        assert sim.now == pytest.approx(0.00002)
        assert [process.name for process in started if process.is_alive] == []
        assert agent.proxied == 0

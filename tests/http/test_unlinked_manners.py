"""The objects a finished exchange unlinks keep their manners.

A finished ``Process`` drops the bound method it cached for itself and a
connection whose two directions are down cuts its ring (docs/INTERNALS.md
"Object lifetimes"), so both are freed by reference count.  Whoever still
holds one must see exactly what they saw before: same states, same
messages, same idempotence.  And a calling end parks one event instead of
a mailbox, which must still behave like the mailbox it stands in for.
"""

import gc

import pytest

from repro.errors import (
    ConnectionRefusedError_,
    ConnectionResetError_,
    RequestTimeoutError,
    SimulationError,
)
from repro.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.http.wire import received_response, send_message
from repro.network import Address, Network
from repro.network.transport import ChannelClosed

from tests.conftest import collector_off, run_to_completion, sim_on_lane as sim
from tests.http.test_client_edge_cases import record_processes


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


def echo(request):
    return HttpResponse(200, body=request.uri.encode())
    yield  # a generator that never waits


@pytest.fixture
def drained_exchange(sim, net):
    """One call served and closed, the simulation drained; returns the
    serve process and both ends of the finished connection."""
    HttpServer(net.add_host("server"), 80, echo).start()
    client_host = net.add_host("client")
    started = record_processes(sim)

    def call(sim):
        # What HttpClient.call does, keeping hold of both ends.
        conn = yield client_host.connect(Address("server", 80))
        server_end = conn.peer
        send_message(conn, HttpRequest("GET", "/hello"))
        payload = yield conn.recv()
        conn.close()
        return conn, server_end, received_response(payload)

    client_end, server_end, response = run_to_completion(sim, call(sim))
    assert response.body == b"/hello"
    (serve,) = [proc for proc in started if proc.name == "server:80/serve"]
    return serve, client_end, server_end


class TestFinishedProcess:
    def test_it_is_dead_and_says_so(self, drained_exchange):
        serve, _, _ = drained_exchange
        assert not serve.is_alive and serve.ok and serve.processed
        assert repr(serve) == "<Process 'server:80/serve' ok>"

    def test_interrupt_raises_and_kill_is_a_no_op(self, drained_exchange):
        serve, _, _ = drained_exchange
        with pytest.raises(SimulationError, match="cannot interrupt dead process 'server:80/serve'"):
            serve.interrupt("too late")
        serve.kill()
        serve.kill()
        assert serve.ok and serve.value is None

    def test_joining_it_continues_at_once_with_its_value(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        finished = sim.process(worker(sim))
        sim.run()

        def joiner(sim):
            before = sim.now
            value = yield finished
            return value, sim.now - before

        assert run_to_completion(sim, joiner(sim)) == ("done", 0.0)

    @pytest.mark.parametrize("ending", ["returns", "raises", "killed"])
    def test_however_it_ended_nothing_is_left_for_the_collector(self, sim, ending):
        def worker(sim):
            yield sim.timeout(1.0)
            if ending == "raises":
                raise ValueError("crashed")

        def scenario():
            proc = sim.process(worker(sim))
            proc.defused = True
            if ending == "killed":
                sim.run(until=0.5)
                proc.kill()
            sim.run()
            assert not proc.is_alive
            if ending == "raises":
                # A stored exception holds the frames it passed through,
                # ``_resume``'s among them; that is Python's cycle, not ours.
                proc.value.__traceback__ = None

        assert collector_finds(scenario) == 0


class TestClosedEnds:
    def test_labels_and_reprs_read_as_before(self, drained_exchange):
        _, client_end, server_end = drained_exchange
        assert client_end.label == "conn1:client->server:80/client"
        assert server_end.label == "conn1:client->server:80/server"
        assert repr(client_end) == "<ConnectionEnd conn1:client->server:80/client closed>"
        assert repr(server_end) == "<ConnectionEnd conn1:client->server:80/server closed>"
        assert repr(client_end.conn) == "<Connection #1 client->server:80>"

    def test_the_ring_is_cut(self, drained_exchange):
        _, client_end, server_end = drained_exchange
        assert client_end.peer is None and server_end.peer is None
        conn = client_end.conn
        assert conn is server_end.conn
        assert conn.client_end is None and conn.server_end is None
        assert server_end._on_receive is None  # no path back to the server

    def test_send_raises_with_the_label(self, drained_exchange):
        _, client_end, server_end = drained_exchange
        for end, side in ((client_end, "client"), (server_end, "server")):
            for send in (end.send, end.send_parsed):
                with pytest.raises(ConnectionResetError_) as caught:
                    send(b"late")
                assert str(caught.value) == (
                    f"conn1:client->server:80/{side}: send on closed connection"
                )

    def test_recv_fails_with_the_mailbox_message(self, sim, drained_exchange):
        _, client_end, server_end = drained_exchange
        for end, side in ((client_end, "client"), (server_end, "server")):
            for _ in range(2):
                with pytest.raises(ChannelClosed) as caught:
                    run_to_completion(sim, _recv(end))
                assert str(caught.value) == (
                    f"channel 'conn1:client->server:80/{side}/inbox' closed"
                )

    def test_close_and_reset_are_idempotent(self, sim, drained_exchange):
        _, client_end, server_end = drained_exchange
        before = sim.now
        for end in (client_end, server_end):
            end.close()
            end.reset()
            end.close()
            assert end.closed
        sim.run()
        assert sim.now == before  # nothing was scheduled
        # A reset after an orderly close does not rewrite history.
        with pytest.raises(ChannelClosed):
            run_to_completion(sim, _recv(client_end))

    def test_on_receive_on_a_closed_end_keeps_nothing(self, drained_exchange):
        _, _, server_end = drained_exchange
        server_end.on_receive(lambda end, unit: None)
        assert server_end._on_receive is None


class TestOneShotReceive:
    """``recv()`` parks one event; the mailbox appears when it is needed."""

    @pytest.fixture
    def ends(self, sim, net):
        alpha, beta = net.add_host("alpha"), net.add_host("beta")
        accepted = []
        beta.listen(80).on_connect(accepted.append)
        client_end = run_to_completion(sim, _connect(alpha))
        return client_end, accepted[0]

    def test_a_lone_recv_builds_no_mailbox(self, sim, ends):
        client_end, server_end = ends
        pending = client_end.recv()
        assert client_end._inbox is None
        server_end.send(b"reply")
        sim.run()
        assert pending.value == b"reply"
        assert client_end._inbox is None and client_end._waiter is None

    def test_two_parked_recvs_get_two_units_in_order(self, sim, ends):
        client_end, server_end = ends
        first, second = client_end.recv(), client_end.recv()
        server_end.send(b"one")
        server_end.send(b"two")
        sim.run()
        assert (first.value, second.value) == (b"one", b"two")

    def test_three_parked_recvs_and_a_late_one(self, sim, ends):
        client_end, server_end = ends
        parked = [client_end.recv() for _ in range(3)]
        for unit in (b"a", b"b", b"c", b"d"):
            server_end.send(unit)
        sim.run()
        assert [ev.value for ev in parked] == [b"a", b"b", b"c"]
        assert run_to_completion(sim, _recv(client_end)) == b"d"

    def test_a_unit_nobody_waited_for_is_buffered(self, sim, ends):
        client_end, server_end = ends
        server_end.send(b"early")
        server_end.send(b"bird")
        sim.run()
        assert run_to_completion(sim, _recv(client_end)) == b"early"
        assert run_to_completion(sim, _recv(client_end)) == b"bird"

    def test_a_reset_fails_the_parked_recv_with_the_reset_error(self, sim, ends):
        client_end, server_end = ends
        pending = client_end.recv()
        pending.defused = True
        server_end.reset()
        sim.run()
        assert isinstance(pending.value, ConnectionResetError_)
        assert str(pending.value) == "conn1:alpha->beta:80/client: connection reset by peer"
        # And every later recv() fails the same way, each with its own exception.
        with pytest.raises(ConnectionResetError_, match="connection reset by peer") as later:
            run_to_completion(sim, _recv(client_end))
        assert later.value is not pending.value

    def test_a_local_reset_fails_the_parked_recv_at_once(self, sim, ends):
        client_end, _ = ends
        pending = client_end.recv()
        pending.defused = True
        client_end.reset()
        assert str(pending.value) == "conn1:alpha->beta:80/client: connection reset"

    def test_a_close_fails_both_parked_recvs_oldest_first(self, sim, ends):
        client_end, server_end = ends
        failed = []
        for name in ("first", "second"):
            pending = client_end.recv()
            pending.defused = True
            pending.add_callback(lambda ev, name=name: failed.append((name, str(ev.value))))
        server_end.close()
        sim.run()
        message = "channel 'conn1:alpha->beta:80/client/inbox' closed"
        assert failed == [("first", message), ("second", message)]


class TestAbortedExchangesLeaveNothingBehind:
    """The error paths free what they allocated by reference count too."""

    def test_timed_out_refused_and_reset_calls(self, sim, net):
        server_host = net.add_host("server")
        client = HttpClient(net.add_host("client"))

        def slow(request):
            yield sim.timeout(1.0)
            return HttpResponse(200)

        HttpServer(server_host, 80, slow).start()
        resetting = server_host.listen(81)
        resetting.on_connect(lambda end: end.on_receive(lambda end, unit: end.reset()))

        def call(port, timeout):
            try:
                yield from client.get(Address("server", port), "/", timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - the outcome under test
                return type(exc)

        def scenario():
            outcomes = [
                run_to_completion(sim, call(port, timeout))
                for port, timeout in ((80, 0.1), (82, None), (81, None))
            ]
            assert outcomes == [
                RequestTimeoutError, ConnectionRefusedError_, ConnectionResetError_
            ]

        scenario()  # warm: pytest's assertion rewriting, the event pools
        assert collector_finds(scenario) == 0


def collector_finds(work) -> int:
    """Objects only the cycle collector can free once ``work()`` is done."""
    with collector_off():
        work()
        return gc.collect()


def _connect(host):
    conn = yield host.connect(Address("beta", 80))
    return conn


def _recv(end):
    unit = yield end.recv()
    return unit

"""Unit tests for the simulated transport: connect, send/recv, faults."""

import pytest

from repro.errors import (
    ConnectionRefusedError_,
    ConnectionResetError_,
    ConnectionTimeoutError,
    HostUnreachableError,
    NetworkError,
)
from repro.network import Address, Network
from repro.simulation import ChannelClosed, Simulator

from tests.conftest import EventCount, run_to_completion


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


@pytest.fixture
def two_hosts(net):
    return net.add_host("alpha"), net.add_host("beta")


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        net.add_host("x")
        with pytest.raises(NetworkError):
            net.add_host("x")

    def test_unknown_host_lookup_raises(self, net):
        with pytest.raises(HostUnreachableError):
            net.host("ghost")

    def test_has_host(self, net):
        net.add_host("x")
        assert net.has_host("x")
        assert not net.has_host("y")

    def test_duplicate_port_bind_rejected(self, net):
        host = net.add_host("x")
        host.listen(80)
        with pytest.raises(NetworkError):
            host.listen(80)

    def test_rebind_after_close(self, net):
        host = net.add_host("x")
        listener = host.listen(80)
        listener.close()
        host.listen(80)  # must not raise


class TestConnect:
    def test_connect_and_exchange(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)
        exchanges = []

        def server(sim):
            conn = yield listener.accept()
            data = yield conn.recv()
            conn.send(b"pong:" + data)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.send(b"ping")
            reply = yield conn.recv()
            exchanges.append((reply, sim.now))

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        # 1 RTT handshake + 1 RTT exchange = 4 x 1ms one-way latency.
        assert exchanges == [(b"pong:ping", pytest.approx(0.004))]

    def test_connect_refused_when_no_listener(self, sim, net, two_hosts):
        alpha, _beta = two_hosts

        def client(sim):
            try:
                yield alpha.connect(Address("beta", 81))
            except ConnectionRefusedError_:
                return sim.now

        # Refusal arrives after one RTT, not after the full timeout.
        assert run_to_completion(sim, client(sim)) == pytest.approx(0.002)

    def test_connect_unknown_host_times_out(self, sim, net, two_hosts):
        alpha, _ = two_hosts

        def client(sim):
            try:
                yield alpha.connect(Address("ghost", 80), timeout=2.0)
            except HostUnreachableError:
                return sim.now

        assert run_to_completion(sim, client(sim)) == pytest.approx(2.0)

    def test_connect_to_closed_listener_refused(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)
        listener.close()

        def client(sim):
            try:
                yield alpha.connect(Address("beta", 80))
            except ConnectionRefusedError_:
                return "refused"

        assert run_to_completion(sim, client(sim)) == "refused"

    def test_loopback_connect(self, sim, net):
        host = net.add_host("solo")
        listener = host.listen(9000)
        results = []

        def server(sim):
            conn = yield listener.accept()
            data = yield conn.recv()
            conn.send(data.upper())

        def client(sim):
            conn = yield host.connect(Address("localhost", 9000))
            conn.send(b"hi")
            results.append((yield conn.recv()))

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert results == [b"HI"]


class TestPartition:
    def test_connect_blackholed_by_partition(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        beta.listen(80)
        net.partition("alpha", "beta")

        def client(sim):
            try:
                yield alpha.connect(Address("beta", 80), timeout=1.5)
            except ConnectionTimeoutError:
                return sim.now

        assert run_to_completion(sim, client(sim)) == pytest.approx(1.5)

    def test_in_flight_messages_dropped(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)
        received = []

        def server(sim):
            conn = yield listener.accept()
            while True:
                try:
                    received.append((yield conn.recv()))
                except (ChannelClosed, ConnectionResetError_):
                    return

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.send(b"before")
            yield sim.timeout(0.01)
            net.partition("alpha", "beta")
            conn.send(b"during")  # dropped silently
            yield sim.timeout(0.01)
            net.heal("alpha", "beta")
            conn.send(b"after")
            yield sim.timeout(0.01)
            conn.close()

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert received == [b"before", b"after"]

    def test_heal_all(self, net):
        net.partition("a", "b")
        net.partition("c", "d")
        net.heal_all()
        assert not net.is_partitioned("a", "b")
        assert not net.is_partitioned("c", "d")

    def test_partition_is_symmetric(self, net):
        net.partition("a", "b")
        assert net.is_partitioned("b", "a")


class TestCloseAndReset:
    def test_orderly_close_delivers_channel_closed(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)

        def server(sim):
            conn = yield listener.accept()
            try:
                yield conn.recv()
            except ChannelClosed:
                return "orderly"

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.close()

        server_proc = sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert server_proc.value == "orderly"

    def test_reset_delivers_reset_error(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)

        def server(sim):
            conn = yield listener.accept()
            try:
                yield conn.recv()
            except ConnectionResetError_:
                return "reset"

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.reset()

        server_proc = sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert server_proc.value == "reset"

    def test_send_on_closed_end_raises(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        beta.listen(80)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.close()
            try:
                conn.send(b"too late")
            except ConnectionResetError_:
                return "rejected"

        assert run_to_completion(sim, client(sim)) == "rejected"

    def test_send_requires_bytes(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        beta.listen(80)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            try:
                conn.send("text")
            except TypeError:
                return "typeerror"

        assert run_to_completion(sim, client(sim)) == "typeerror"

    def test_parsed_unit_arrives_as_the_same_object_when_bytes_would(self, sim, net, two_hosts):
        """``send_parsed`` is ``send`` without the bytes: the peer gets the
        very object, at the instant it would have got the payload."""
        alpha, beta = two_hosts
        listener = beta.listen(80)
        unit = {"parsed": ["by", "the", "layer", "above"]}

        def server(sim):
            conn = yield listener.accept()
            first = yield conn.recv()
            first_at = sim.now
            second = yield conn.recv()
            return (first, first_at, second, sim.now)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.send(b"bytes")
            yield sim.timeout(0.5)
            conn.send_parsed(unit)
            conn.close()
            try:
                conn.send_parsed(unit)
            except ConnectionResetError_:
                return "rejected"

        sending = sim.process(client(sim))
        first, first_at, second, second_at = run_to_completion(sim, server(sim))
        assert first == b"bytes" and second is unit
        assert second_at - first_at == pytest.approx(0.5)
        assert sending.value == "rejected"

    def test_parsed_unit_is_dropped_by_a_partition_like_bytes(self, sim, net, two_hosts):
        alpha, beta = two_hosts
        listener = beta.listen(80)

        def server(sim):
            conn = yield listener.accept()
            return (yield conn.recv())

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            net.partition("alpha", "beta")
            conn.send_parsed(object())
            yield sim.timeout(1.0)
            net.heal("alpha", "beta")
            conn.send_parsed("after the heal")

        sim.process(client(sim))
        assert run_to_completion(sim, server(sim)) == "after the heal"

    def test_send_after_peer_departed_raises_epipe_style(self, sim, net, two_hosts):
        """Writing after the peer closed surfaces as a reset (EPIPE)."""
        alpha, beta = two_hosts
        listener = beta.listen(80)

        def server(sim):
            conn = yield listener.accept()
            yield conn.recv()
            yield sim.timeout(0.5)  # client closes while we think
            try:
                conn.send(b"late reply")
            except ConnectionResetError_:
                return "epipe"

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.send(b"req")
            yield sim.timeout(0.1)
            conn.close()

        server_proc = sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert server_proc.value == "epipe"


class TestOnReceive:
    """``ConnectionEnd.on_receive``: the push form of ``recv()``."""

    @pytest.fixture
    def ends(self, sim, two_hosts):
        """A connected (client end, server end) pair; nobody parked on either."""
        alpha, beta = two_hosts
        accepted = []
        beta.listen(80).on_connect(accepted.append)
        client_end = run_to_completion(sim, _connect(alpha))
        return client_end, accepted[0]

    def test_one_registration_takes_one_unit(self, sim, ends):
        client_end, server_end = ends
        got = []
        server_end.on_receive(lambda end, unit: got.append((end, unit, sim.now)))
        sent_at = sim.now
        client_end.send(b"one")
        client_end.send(b"two")
        sim.run()
        # The second unit waits in the buffer until somebody asks for it.
        assert got == [(server_end, b"one", pytest.approx(sent_at + 0.001))]
        server_end.on_receive(lambda end, unit: got.append(unit))
        assert got[1:] == [b"two"]

    def test_buffered_units_are_handed_over_in_order(self, sim, ends):
        client_end, server_end = ends
        for unit in (b"a", b"b", b"c"):
            client_end.send(unit)
        sim.run()
        got = []

        def take(end, unit):
            got.append(unit)
            end.on_receive(take)

        server_end.on_receive(take)
        assert got == [b"a", b"b", b"c"]
        # Registered and waiting again: the next delivery calls straight back.
        client_end.send(b"d")
        sim.run()
        assert got == [b"a", b"b", b"c", b"d"]

    def test_waiting_and_closing_schedule_nothing(self):
        """An armed end costs no event, and neither does the close that
        finds it armed: nobody is parked in ``recv()`` to be failed."""
        sim = Simulator(seed=1, scheduler="heap")
        net = Network(sim, default_latency=0.001)
        alpha, beta = net.add_host("alpha"), net.add_host("beta")
        accepted = []
        beta.listen(80).on_connect(accepted.append)
        client_end = run_to_completion(sim, _connect(alpha))
        scheduled = EventCount(sim)
        before = scheduled()
        accepted[0].on_receive(lambda end, unit: None)
        assert scheduled() == before
        client_end.close()
        sim.run()
        assert accepted[0].closed
        assert scheduled() == before + 1  # the close's own link latency

    @pytest.mark.parametrize("shutdown", ["close", "reset"])
    def test_unit_arriving_after_the_end_shut_down_is_dropped(self, sim, ends, shutdown):
        client_end, server_end = ends
        got = []
        server_end.on_receive(lambda end, unit: got.append(unit))
        getattr(server_end, shutdown)()
        client_end.send(b"crossed the shutdown on the wire")
        sim.run()
        assert got == []
        with pytest.raises(ChannelClosed if shutdown == "close" else ConnectionResetError_):
            run_to_completion(sim, _recv(server_end))  # nothing was buffered either

    @pytest.mark.parametrize(
        "shutdown, error", [("close", ChannelClosed), ("reset", ConnectionResetError_)]
    )
    def test_first_recv_after_the_peer_shut_down_fails_like_a_parked_one(
        self, sim, ends, shutdown, error
    ):
        """The inbox is built on first use; built late, it is born closed
        for the reason the peer gave."""
        client_end, server_end = ends
        getattr(client_end, shutdown)()
        sim.run()
        with pytest.raises(error) as caught:
            run_to_completion(sim, _recv(server_end))
        assert "conn1:alpha->beta:80/server" in str(caught.value)

    def test_label_names_connection_and_side(self, ends):
        client_end, server_end = ends
        assert client_end.label == "conn1:alpha->beta:80/client"
        assert server_end.label == "conn1:alpha->beta:80/server"


def _connect(host):
    return (yield host.connect(Address("beta", 80)))


def _recv(end):
    return (yield end.recv())


class TestLatencyOverrides:
    def test_per_pair_override(self, sim, net):
        alpha = net.add_host("alpha")
        beta = net.add_host("beta")
        net.set_latency("alpha", "beta", 0.5)
        listener = beta.listen(80)
        times = []

        def server(sim):
            conn = yield listener.accept()
            data = yield conn.recv()
            conn.send(data)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            conn.send(b"x")
            yield conn.recv()
            times.append(sim.now)

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert times == [pytest.approx(2.0)]  # 4 one-way hops x 0.5s

    def test_a_host_with_itself_is_refused_and_names_the_setting(self, net):
        net.add_host("alpha")
        with pytest.raises(NetworkError, match="loopback_latency"):
            net.set_latency("alpha", "alpha", 0.5)
        # Nothing was installed: the loopback model still governs.
        assert net.latency_between("alpha", "alpha") == net.loopback_latency.sample(net.sim)

    def test_override_installed_after_traffic_started_applies_to_the_next_message(
        self, sim, net, two_hosts
    ):
        """The empty-table guard looks at the table as it is now: having
        found it empty once is not remembered."""
        alpha, beta = two_hosts
        listener = beta.listen(80)
        sent, arrived = [], []

        def server(sim):
            conn = yield listener.accept()
            for _ in range(2):
                yield conn.recv()
                arrived.append(sim.now)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            sent.append(sim.now)
            conn.send(b"default link")
            yield sim.timeout(1.0)
            net.set_latency("beta", "alpha", 0.25)  # symmetric: either order
            sent.append(sim.now)
            conn.send(b"per-pair link")

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert arrived == [pytest.approx(sent[0] + 0.001), pytest.approx(sent[1] + 0.25)]

    def test_partition_installed_after_traffic_started_drops_the_next_message(
        self, sim, net, two_hosts
    ):
        alpha, beta = two_hosts
        listener = beta.listen(80)
        got = []

        def take(end, unit):
            got.append(unit)
            end.on_receive(take)  # one registration takes one unit

        def server(sim):
            conn = yield listener.accept()
            conn.on_receive(take)

        def client(sim):
            conn = yield alpha.connect(Address("beta", 80))
            assert not net.is_partitioned("alpha", "beta")
            conn.send(b"lands")
            yield sim.timeout(1.0)
            net.partition("alpha", "beta")
            conn.send(b"dropped")
            yield sim.timeout(1.0)
            net.heal_all()
            assert not net.is_partitioned("beta", "alpha")
            conn.send(b"lands again")

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert got == [b"lands", b"lands again"]

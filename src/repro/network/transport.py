"""Simulated connection-oriented transport (the TCP stand-in).

The paper's fault model (Section 3.1) enumerates what a microservice
can observe of a failing dependency: delayed responses, error
responses, invalid responses, connection timeouts, and failure to
establish the connection.  This transport exposes exactly those
observables:

* :meth:`Network.connect` fails with ``ConnectionRefusedError_`` when
  no listener is bound, with ``ConnectionTimeoutError`` when the
  destination is partitioned away (SYN blackholed), and with
  ``HostUnreachableError`` for unknown hosts.
* :meth:`ConnectionEnd.recv` fails with ``ConnectionResetError_`` when
  the peer resets — which is how a Gremlin ``Abort`` rule with
  ``Error=-1`` emulates an abrupt crash, per Section 5 of the paper.
* Messages in flight across a newly-partitioned link are silently
  dropped, so the caller's only signal is its own timeout.

A data unit is opaque to the transport and comes in two forms.
:meth:`ConnectionEnd.send` carries ``bytes`` (``bytes`` in, ``bytes``
out, anything else is a ``TypeError``).  :meth:`ConnectionEnd.send_parsed`
carries an object the layer above has already parsed — the HTTP layer's
wire snapshot of a message — and delivers that same object, so a hop
whose bytes nobody would read costs no serialisation.  Timing, drops,
closes and resets are identical for both; this module knows nothing of
what a parsed unit is.

Arrivals are taken by pull or by push.  A process pulls: ``yield
listener.accept()`` for the next connection, ``yield end.recv()`` for
the next data unit — one event each.  A server is pushed to:
:meth:`Listener.on_connect` and :meth:`ConnectionEnd.on_receive` call
back from inside the handshake or the delivery, schedule nothing and
park nothing, so an open connection nobody speaks on costs its server
no process and no event.

Most traffic is one request and one reply.  :meth:`Network.exchange`
opens a *one-shot exchange* for it: two :class:`ExchangeEnd` objects
with the calling half of a connection's API (``send``/``send_parsed``,
``recv``, ``close``) and the serving half (``send``/``send_parsed``,
``reset``), but no :class:`Connection`, no mailbox and no push
callback to re-arm — the listener's exchange hook
(:meth:`Listener.on_exchange`) is called once, with the serving end and
the request.  Every queue entry, latency sample, drop, refusal, reset
and close happens where a connection's would.  A listener without a
hook (a raw peer that calls ``accept()``) is reached by a connection
instead, and :meth:`Network.connect` always builds one.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import (
    ConnectionRefusedError_,
    ConnectionResetError_,
    ConnectionTimeoutError,
    HostUnreachableError,
    NetworkError,
)
from repro.network.address import LOOPBACK, Address
from repro.network.latency import FixedLatency, LatencyModel, as_latency
from repro.simulation.events import SimEvent
from repro.simulation.kernel import Simulator
from repro.simulation.resources import Channel, ChannelClosed

__all__ = ["Network", "Host", "Listener", "Connection", "ConnectionEnd", "ExchangeEnd"]

_new = object.__new__

#: Default one-way link latency: 0.5 ms (same-datacenter RTT ~1 ms).
DEFAULT_LINK_LATENCY = 0.0005

#: Default loopback latency for microservice -> sidecar hops: 10 µs.
DEFAULT_LOOPBACK_LATENCY = 0.00001

#: How long a connect attempt waits before concluding the destination is
#: unreachable (partitioned).  Mirrors a kernel SYN-retry budget.
DEFAULT_CONNECT_TIMEOUT = 3.0


class Network:
    """The simulated network fabric: hosts, links, partitions.

    A single :class:`Network` hosts an entire application deployment.
    Links are implicit (full mesh); latency comes from a default model
    with optional per-host-pair overrides.  Partitions are symmetric
    host-pair blocks that drop in-flight traffic and blackhole new
    connection attempts.
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: _t.Union[float, LatencyModel, None] = DEFAULT_LINK_LATENCY,
        loopback_latency: _t.Union[float, LatencyModel, None] = DEFAULT_LOOPBACK_LATENCY,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.sim = sim
        self.default_latency = as_latency(default_latency)
        self.loopback_latency = as_latency(loopback_latency)
        self.connect_timeout = connect_timeout
        self._hosts: dict[str, Host] = {}
        self._pair_latency: dict[frozenset[str], LatencyModel] = {}
        self._partitions: set[frozenset[str]] = set()
        self._conn_ids = itertools.count(1)

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str) -> "Host":
        """Create and register a host; names must be unique."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(self, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> "Host":
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachableError(f"no host named {name!r}") from None

    def has_host(self, name: str) -> bool:
        """True if a host with this name exists."""
        return name in self._hosts

    @property
    def hosts(self) -> list["Host"]:
        """All registered hosts (stable order of registration)."""
        return list(self._hosts.values())

    def set_latency(
        self, host_a: str, host_b: str, latency: _t.Union[float, LatencyModel]
    ) -> None:
        """Override the latency model for one pair of distinct hosts
        (symmetric); a host's traffic with itself is governed by
        ``loopback_latency``."""
        if host_a == host_b:
            raise NetworkError(
                f"set_latency({host_a!r}, {host_b!r}): a host's traffic with"
                " itself takes loopback_latency, not a per-pair model"
            )
        self._pair_latency[frozenset((host_a, host_b))] = as_latency(latency)

    def latency_between(self, host_a: str, host_b: str) -> float:
        """Sample a one-way delay for a message between two hosts.

        A :class:`FixedLatency` is read, not called: its ``delay`` is what
        ``sample()`` would return.  Any other model samples once per
        message.
        """
        if host_a == host_b:
            model = self.loopback_latency
        else:
            model = self.default_latency
            # The per-pair table is empty unless somebody installed a
            # model: no key is built to look into nothing.
            pairs = self._pair_latency
            if pairs:
                model = pairs.get(frozenset((host_a, host_b)), model)
        if type(model) is FixedLatency:
            return model.delay
        return model.sample(self.sim)

    # -- partitions -------------------------------------------------------------

    def partition(self, host_a: str, host_b: str) -> None:
        """Block all traffic between two hosts (symmetric)."""
        self._partitions.add(frozenset((host_a, host_b)))

    def heal(self, host_a: str, host_b: str) -> None:
        """Remove a partition between two hosts (no-op if absent)."""
        self._partitions.discard(frozenset((host_a, host_b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, host_a: str, host_b: str) -> bool:
        """True if traffic between the two hosts is currently blocked."""
        partitions = self._partitions
        return bool(partitions) and frozenset((host_a, host_b)) in partitions

    # -- connections ---------------------------------------------------------------

    def connect(
        self,
        src: "Host",
        dst: Address,
        timeout: float | None = None,
    ) -> SimEvent:
        """Open a connection from ``src`` to ``dst``.

        Returns an event that succeeds with a :class:`ConnectionEnd`
        (the client side) or fails with one of the transport errors.
        Refusal is signalled after one RTT; partition/blackhole after
        ``timeout`` (default: the network's connect timeout).
        """
        return self._open(src, dst, timeout, False)

    def exchange(
        self,
        src: "Host",
        dst: Address,
        timeout: float | None = None,
    ) -> SimEvent:
        """Open a one-shot exchange from ``src`` to ``dst``: one request,
        one reply.

        Exactly :meth:`connect` — same handshake, errors and timing —
        except that when the listener at ``dst`` has an exchange hook
        (:meth:`Listener.on_exchange`) the event succeeds with the calling
        :class:`ExchangeEnd` instead of a :class:`ConnectionEnd`, and the
        hook, not ``on_connect``, hears of it: once, when the request
        arrives.  A listener without a hook gets a connection.
        """
        return self._open(src, dst, timeout, True)

    def _open(
        self, src: "Host", dst: Address, timeout: float | None, one_shot: bool
    ) -> SimEvent:
        budget = self.connect_timeout if timeout is None else timeout

        if dst.host == LOOPBACK:
            dst_host: Host | None = src
        else:
            dst_host = self._hosts.get(dst.host)

        if dst_host is None:
            # Unknown host: fail after the connect budget, like a DNS
            # blackhole / unroutable address.
            return self._fails_after(
                budget, HostUnreachableError(f"no route to host {dst.host!r}")
            )

        if (
            self._partitions
            and src.name != dst_host.name
            and self.is_partitioned(src.name, dst_host.name)
        ):
            return self._fails_after(
                budget,
                ConnectionTimeoutError(f"connect {src.name} -> {dst}: network partition"),
            )

        rtt = self.latency_between(src.name, dst_host.name) * 2
        listener = dst_host._listeners.get(dst.port)
        if listener is None or listener.closed:
            return self._fails_after(
                rtt, ConnectionRefusedError_(f"connection refused: {dst}")
            )

        ev = self.sim.event()
        hook = listener._on_exchange
        if one_shot and hook is not None:
            caller = ExchangeEnd._pair(self, next(self._conn_ids), src, dst_host, dst.port, hook)

            def _complete(_: SimEvent) -> None:
                if listener.closed:
                    caller.peer = None  # nobody will ever speak on it
                    ev.fail(ConnectionRefusedError_(f"connection refused: {dst}"))
                else:
                    # The hook hears of the exchange when its request arrives.
                    ev.succeed(caller)

        else:
            conn = Connection(self, next(self._conn_ids), src, dst_host, dst.port)

            def _complete(_: SimEvent) -> None:
                if listener.closed:
                    ev.fail(ConnectionRefusedError_(f"connection refused: {dst}"))
                    return
                listener._deliver(conn.server_end)
                ev.succeed(conn.client_end)

        # Handshake completes after one RTT; then both sides learn of it.
        # The caller is told by an event of its own, queued behind what
        # is already due at that instant: answering on the handshake
        # timeout itself would save an event per connect but moves the
        # caller ahead of other flows tied on the same timestamp
        # (tests/integration/test_tie_order.py; docs/INTERNALS.md
        # "Per-hop ledger").
        done = self.sim.timeout(rtt)

        # A fresh timeout's callback list is empty and unprocessed by
        # construction: append to it, as the kernel's own waiters do.
        done.callbacks.append(_complete)
        return ev

    def _fails_after(self, delay: float, exc: Exception) -> SimEvent:
        """A connect attempt that fails with ``exc`` once ``delay`` has passed."""
        ev = self.sim.event()
        self.sim.timeout(delay).callbacks.append(lambda _: ev.fail(exc))
        return ev


class Host:
    """A machine (or container) on the simulated network."""

    def __init__(self, network: Network, name: str) -> None:
        self.network = network
        #: The simulator this host's network runs on.
        self.sim: Simulator = network.sim
        self.name = name
        self._listeners: dict[int, Listener] = {}

    def listen(self, port: int) -> "Listener":
        """Bind a listener on ``port``; returns the Listener."""
        if port in self._listeners and not self._listeners[port].closed:
            raise NetworkError(f"{self.name}: port {port} already bound")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, dst: Address, timeout: float | None = None) -> SimEvent:
        """Open an outbound connection; see :meth:`Network.connect`."""
        return self.network.connect(self, dst, timeout=timeout)

    def __repr__(self) -> str:
        return f"<Host {self.name!r} listeners={sorted(self._listeners)}>"


class Listener:
    """A bound port accepting inbound connections."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.closed = False
        self._accept_queue: Channel = Channel(host.sim, name=f"{host.name}:{port}/accept")
        self._on_connect: _t.Callable[["ConnectionEnd"], None] | None = None
        self._on_exchange: _t.Callable[["ExchangeEnd", object], None] | None = None

    @property
    def address(self) -> Address:
        """The address this listener is bound to."""
        return Address(self.host.name, self.port)

    def accept(self) -> SimEvent:
        """Event yielding the next inbound :class:`ConnectionEnd`."""
        return self._accept_queue.get()

    def on_connect(self, callback: _t.Callable[["ConnectionEnd"], None]) -> None:
        """Deliver every new connection to ``callback`` instead of the
        accept queue — the idiom servers use to arm each connection
        with :meth:`ConnectionEnd.on_receive`."""
        self._on_connect = callback
        # Drain anything already queued.
        while len(self._accept_queue):
            ev = self._accept_queue.get()
            callback(ev.value)

    def on_exchange(self, hook: _t.Callable[["ExchangeEnd", object], None]) -> None:
        """Serve one-shot exchanges (:meth:`Network.exchange`) with
        ``hook(end, unit)``: called once per exchange, from inside the
        delivery of its request, with the serving :class:`ExchangeEnd`
        and the request unit.  Connections (:meth:`Network.connect`)
        still go to ``on_connect`` or the accept queue."""
        self._on_exchange = hook

    def _deliver(self, server_end: "ConnectionEnd") -> None:
        if self._on_connect is not None:
            self._on_connect(server_end)
        else:
            self._accept_queue.put(server_end)

    def close(self) -> None:
        """Unbind: subsequent connects are refused.  A listener that was
        already replaced on its port leaves the newer one bound."""
        self.closed = True
        listeners = self.host._listeners
        if listeners.get(self.port) is self:
            del listeners[self.port]
        self._accept_queue.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Listener {self.address} {state}>"


class Connection:
    """A bidirectional message pipe between two hosts.

    Holds the two :class:`ConnectionEnd` halves.  Application code only
    ever touches the ends; the Connection exists so resets and closes
    can coordinate both directions.

    While either direction is up the connection is a ring (it holds its
    ends, each end holds it and its peer).  Once both are down the ring
    is cut — ``client_end``, ``server_end`` and both ``peer`` links go to
    ``None`` — so a finished connection is freed by reference count the
    moment the last exchange drops its end.
    """

    def __init__(
        self, network: Network, conn_id: int, client_host: Host, server_host: Host, port: int
    ) -> None:
        self.network = network
        self.id = conn_id
        self.client_host = client_host
        self.server_host = server_host
        self.port = port
        client_end = ConnectionEnd(self, client_host, server_host, "client")
        server_end = ConnectionEnd(self, server_host, client_host, "server")
        client_end.peer = server_end
        server_end.peer = client_end
        self.client_end: ConnectionEnd | None = client_end
        self.server_end: ConnectionEnd | None = server_end

    def __repr__(self) -> str:
        return f"<Connection #{self.id} {self.client_host.name}->{self.server_host.name}:{self.port}>"


class _End:
    """What an end says and refuses, whether a connection or an exchange
    carries it: its ``send`` of bytes, the error a ``recv()`` on a closed
    end fails with, its ``repr``.  Each kind has its own ``label``,
    ``closed``, ``send_parsed`` and ``_reset_error``."""

    __slots__ = ()

    def _closed_error(self) -> Exception:
        """What a ``recv()`` finds on a closed end with nothing buffered,
        in the words the mailbox would have used."""
        if self._reset_error is not None:
            return ConnectionResetError_(self._reset_error)
        return ChannelClosed(f"channel {self.label + '/inbox'!r} closed")

    def send(self, payload: bytes) -> None:
        """Transmit the bytes ``payload`` to the peer after one link latency.

        Sends on a closed end raise ``ConnectionResetError_``; messages
        crossing a link that is partitioned *at delivery time* are
        dropped silently (the real-world behaviour that makes client
        timeouts necessary).
        """
        if self.closed:
            raise ConnectionResetError_(f"{self.label}: send on closed connection")
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError(f"payload must be bytes, got {type(payload).__name__}")
        self.send_parsed(bytes(payload))

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<{type(self).__name__} {self.label} {state}>"


class ConnectionEnd(_End):
    """One endpoint of a connection: send to the peer, recv from it.

    An end allocates what it uses.  A serving end is only ever pushed to
    (:meth:`on_receive`) and a calling end waits for one response, so a
    lone :meth:`recv` parks one event and the inbox :class:`Channel` is
    built only by a unit nobody was ready for or a second ``recv()``
    parked beside the first; ``closed`` is the end's own flag for both
    directions, and the label is formatted when somebody asks (an error
    message, a ``repr``).

    A closed end holds nothing live: its parked ``recv()`` has failed,
    its ``on_receive`` callback (a path to a running server) is dropped,
    and once the peer is closed too the ``peer`` links are cut (see
    :class:`Connection`).  The one ring that still waits for the cycle
    collector is an end whose close notification never fires: the run
    stopped first, or nobody ever held the client end (a connect
    abandoned by its deadline).
    """

    def __init__(self, conn: Connection, local: Host, remote: Host, side: str) -> None:
        self.conn = conn
        self.local = local
        self.remote = remote
        #: ``"client"`` or ``"server"``; the end cannot ask the connection
        #: which one it is once the ring is cut.
        self.side = side
        self.peer: "ConnectionEnd" | None = None  # set by Connection
        self.closed = False
        #: Text of the ``ConnectionResetError_`` a ``recv()`` with nothing
        #: buffered fails with once closed, or None for an orderly close.
        #: The text, not the exception: one that was thrown into a caller
        #: carries that caller's frames, and those hold this end.
        self._reset_error: str | None = None
        #: The lone parked ``recv()``; older than anything in ``_inbox``.
        self._waiter: SimEvent | None = None
        self._inbox: Channel | None = None
        self._on_receive: _t.Callable[["ConnectionEnd", object], None] | None = None

    @property
    def sim(self) -> Simulator:
        """The simulator this connection runs on."""
        return self.conn.network.sim

    @property
    def label(self) -> str:
        """``conn<id>:<client>-><server>:<port>/<side>``, for messages."""
        conn = self.conn
        return (
            f"conn{conn.id}:{conn.client_host.name}->{conn.server_host.name}"
            f":{conn.port}/{self.side}"
        )

    def _buffer(self) -> Channel:
        """The mailbox of an open end, built on first need."""
        inbox = self._inbox
        if inbox is None:
            inbox = self._inbox = Channel(self.sim, name=f"{self.label}/inbox")
        return inbox

    def send_parsed(self, unit: object) -> None:
        """Transmit an already-parsed data unit; same timing as :meth:`send`.

        ``unit`` is whatever the layer above would have parsed out of
        the bytes it did not serialise.  The peer's :meth:`recv` yields
        the very same object, so the sender must hand over a snapshot it
        will not touch again; the transport never looks inside it.
        """
        if self.closed:
            raise ConnectionResetError_(f"{self.label}: send on closed connection")
        network = self.conn.network
        delay = network.latency_between(self.local.name, self.remote.name)
        peer = self.peer
        assert peer is not None

        def _deliver(_: SimEvent) -> None:
            if peer.closed:
                return  # peer already gone; drop like a RST race
            if (
                network._partitions
                and self.local.name != self.remote.name
                and network.is_partitioned(self.local.name, self.remote.name)
            ):
                return  # dropped on the floor by the partition
            receiver = peer._on_receive
            if receiver is not None:
                peer._on_receive = None
                receiver(peer, unit)
                return
            waiter = peer._waiter
            if waiter is not None:
                peer._waiter = None
                waiter.succeed(unit)
            else:
                peer._buffer().put(unit)

        network.sim.timeout(delay).callbacks.append(_deliver)

    def recv(self) -> SimEvent:
        """Event yielding the next data unit from the peer: ``bytes`` if
        it was sent with :meth:`send`, the sender's object if with
        :meth:`send_parsed`.

        Fails with ``ConnectionResetError_`` if the peer resets, or
        :class:`~repro.simulation.resources.ChannelClosed` on orderly
        close with nothing buffered.
        """
        inbox = self._inbox
        if inbox is not None:
            return inbox.get()
        sim = self.conn.network.sim
        if self.closed:
            return sim.event().fail(self._closed_error())
        if self._waiter is None:
            # The common case, one response awaited: one event, no mailbox.
            waiter = self._waiter = sim.event()
            return waiter
        # Parked beside an earlier recv(): the mailbox queues this one,
        # and a delivery serves the lone waiter before the mailbox.
        return self._buffer().get()

    def on_receive(self, callback: _t.Callable[["ConnectionEnd", object], None]) -> None:
        """Hand the next data unit to ``callback(end, unit)`` — the push
        form of :meth:`recv`, as :meth:`Listener.on_connect` is the push
        form of ``accept()``.

        One registration takes one unit: a unit already buffered is
        handed over now, otherwise the delivery that brings the next one
        calls back.  Nothing is scheduled and no process waits, so an end
        whose peer closes (or never speaks) costs its owner no event; a
        server registers again when it is ready for the next unit, and
        units arriving in between wait their turn in the buffer, in
        order.  Once the end is closed or reset no delivery calls back,
        and the callback is not kept.
        """
        inbox = self._inbox
        if inbox is not None and len(inbox):
            callback(self, inbox.get().value)
        elif not self.closed:
            self._on_receive = callback

    def close(self) -> None:
        """Orderly close of both directions (delivered after latency)."""
        self._shutdown(reset=False)

    def reset(self) -> None:
        """Abortive close: the peer's pending/future recv fails with
        ``ConnectionResetError_``.  This is the transport mechanism the
        Abort fault uses for ``Error=-1``."""
        self._shutdown(reset=True)

    def _shutdown(self, reset: bool) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        assert peer is not None
        network = self.conn.network
        delay = network.latency_between(self.local.name, self.remote.name)

        def _notify(_: SimEvent) -> None:
            if not peer.closed:
                peer.closed = True
                peer._close_inbox(
                    f"{peer.label}: connection reset by peer" if reset else None
                )
            # Both directions are down: cut the ring.
            conn = self.conn
            conn.client_end = conn.server_end = self.peer = peer.peer = None

        network.sim.timeout(delay).callbacks.append(_notify)
        # Local pending receives also fail immediately on reset.
        self._close_inbox(f"{self.label}: connection reset" if reset else None)

    def _close_inbox(self, reset_error: str | None) -> None:
        """Fail every parked ``recv()`` and drop the push callback (a
        path from a dead connection to a live server)."""
        self._reset_error = reset_error
        self._on_receive = None
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.fail(self._closed_error())
        if self._inbox is not None:
            self._inbox.close(
                None if reset_error is None else ConnectionResetError_(reset_error)
            )


class ExchangeEnd(_End):
    """One end of a one-shot exchange: one request out, one reply back.

    The calling end is what :meth:`Network.exchange` yields; the serving
    end is what the listener's exchange hook is called with, together
    with the request.  Each end speaks the part of :class:`ConnectionEnd`'s
    API its side uses — ``send``/``send_parsed``, ``recv`` and ``close``
    for the caller; ``closed``, ``send``/``send_parsed`` and ``reset`` for
    the server — with a connection's timing, drops, errors and
    ``conn<id>:…`` texts, so code written for a connection end runs on
    either.

    What one request never uses is not there: no :class:`Connection`, no
    mailbox (a unit that arrives before its ``recv()`` waits in a slot),
    no push callback to re-arm — the hook is called once — and a unit
    rides its own link-latency timeout as that event's value.  Each end
    sends at most one unit.  The two ends link to each other while either
    direction is up; when the second goes down the links are cut, so a
    finished exchange is freed by reference count.  As with a connection,
    an exchange whose caller abandoned the handshake (its deadline passed
    first) is never closed and waits for the cycle collector.
    """

    __slots__ = (
        "network",
        "id",
        "local",
        "remote",
        "port",
        "side",
        "peer",
        "closed",
        "_sent",
        "_reset_error",
        "_waiter",
        "_unit",
        "_hook",
    )

    @staticmethod
    def _pair(
        network: Network,
        conn_id: int,
        client: Host,
        server: Host,
        port: int,
        hook: _t.Callable[["ExchangeEnd", object], None],
    ) -> "ExchangeEnd":
        """Both ends of a new exchange, built in one frame; returns the
        calling one."""
        caller = _new(ExchangeEnd)
        callee = _new(ExchangeEnd)
        caller.network = callee.network = network
        caller.id = callee.id = conn_id
        caller.port = callee.port = port
        caller.local = callee.remote = client
        caller.remote = callee.local = server
        caller.side = "client"
        callee.side = "server"
        caller.peer = callee
        callee.peer = caller
        caller.closed = callee.closed = caller._sent = callee._sent = False
        caller._reset_error = callee._reset_error = None
        caller._waiter = callee._waiter = caller._unit = callee._unit = None
        caller._hook = None
        #: The listener's hook, until the request has been handed to it.
        callee._hook = hook
        return caller

    @property
    def label(self) -> str:
        """``conn<id>:<client>-><server>:<port>/<side>``, for messages."""
        if self.side == "client":
            client, server = self.local, self.remote
        else:
            client, server = self.remote, self.local
        return f"conn{self.id}:{client.name}->{server.name}:{self.port}/{self.side}"

    def send_parsed(self, unit: object) -> None:
        """Transmit this end's one data unit after one link latency; see
        :meth:`ConnectionEnd.send_parsed`."""
        if self.closed:
            raise ConnectionResetError_(f"{self.label}: send on closed connection")
        if self._sent:
            raise NetworkError(f"{self.label}: an exchange carries one unit each way")
        self._sent = True
        network = self.network
        delay = network.latency_between(self.local.name, self.remote.name)
        network.sim.timeout(delay, unit).callbacks.append(self.peer._arrive)

    def _arrive(self, carrier: SimEvent) -> None:
        """The peer's unit lands here, one link latency after it was sent."""
        if self.closed:
            return  # gone already; dropped like a RST race
        network = self.network
        if (
            network._partitions
            and self.local.name != self.remote.name
            and network.is_partitioned(self.remote.name, self.local.name)
        ):
            return  # dropped on the floor by the partition
        unit = carrier._value
        hook = self._hook
        if hook is not None:
            self._hook = None
            hook(self, unit)
            return
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.succeed(unit)
        else:
            self._unit = unit

    def recv(self) -> SimEvent:
        """Event yielding the peer's unit; see :meth:`ConnectionEnd.recv`.
        One ``recv()`` may wait at a time."""
        ev = self.network.sim.event()
        unit = self._unit
        if unit is not None:
            self._unit = None
            return ev.succeed(unit)
        if self.closed:
            return ev.fail(self._closed_error())
        if self._waiter is not None:
            raise NetworkError(f"{self.label}: an exchange carries one reply")
        self._waiter = ev
        return ev

    def close(self) -> None:
        """Orderly close of both directions (delivered after latency)."""
        if self.closed:
            return
        self.closed = True
        network = self.network
        delay = network.latency_between(self.local.name, self.remote.name)
        network.sim.timeout(delay).callbacks.append(self.peer._closed_by_peer)
        # A caller whose deadline passed is still parked in recv().
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.fail(self._closed_error())

    def reset(self) -> None:
        """Abortive close: the peer's pending/future ``recv()`` fails with
        ``ConnectionResetError_`` (Abort's ``Error=-1``)."""
        if self.closed:
            return
        self.closed = True
        network = self.network
        delay = network.latency_between(self.local.name, self.remote.name)
        network.sim.timeout(delay).callbacks.append(self.peer._reset_by_peer)
        self._hang_up(f"{self.label}: connection reset")

    def _closed_by_peer(self, _: SimEvent) -> None:
        if not self.closed:
            self.closed = True
            self._hook = None
            waiter = self._waiter
            if waiter is not None:
                self._waiter = None
                waiter.fail(self._closed_error())
        self._cut()

    def _reset_by_peer(self, _: SimEvent) -> None:
        if not self.closed:
            self.closed = True
            self._hang_up(f"{self.label}: connection reset by peer")
        self._cut()

    def _hang_up(self, reset_error: str | None) -> None:
        """Fail the parked ``recv()`` and drop the hook (a path from a dead
        exchange to a live server)."""
        self._reset_error = reset_error
        self._hook = None
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.fail(self._closed_error())

    def _cut(self) -> None:
        """Both directions are down: unlink the two ends."""
        peer = self.peer
        if peer is not None:
            peer.peer = self.peer = None


# Re-export ChannelClosed so transport users need not import resources.
__all__.append("ChannelClosed")

"""HTTP server over the simulated transport.

A server binds a port and spawns one simulation process per *exchange in
progress*: a connection that is only open costs nothing, the process
starts when a request arrives (request -> handler -> response) and ends
with the response, and only then is the connection's next request taken.
So a single connection carries sequential requests (keep-alive,
pipelined ones answered strictly in order) while concurrent connections
are served in parallel — and a connection whose peer went away, or never
spoke, leaves no process behind.

Handlers are generator functions ``handler(request) -> HttpResponse``
that may ``yield`` events (e.g. make downstream calls via
:class:`~repro.http.client.HttpClient`).  Handler exceptions become
``500`` responses; an unparseable request becomes ``400``.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CodecError
from repro.http import status as http_status
from repro.http.headers import REQUEST_ID_HEADER
from repro.http.message import HttpRequest, HttpResponse
from repro.http.wire import received_request, send_message
from repro.network.transport import ConnectionEnd, Host, Listener
from repro.simulation.kernel import Simulator

__all__ = ["HttpServer", "Handler"]

#: A handler is a generator function from request to response.
Handler = _t.Callable[[HttpRequest], _t.Generator[_t.Any, _t.Any, HttpResponse]]


class HttpServer:
    """Binds ``port`` on ``host`` and serves ``handler``."""

    def __init__(self, host: Host, port: int, handler: Handler, name: str | None = None) -> None:
        self.host = host
        #: The simulator the owning host runs on.
        self.sim: Simulator = host.sim
        self.port = port
        self.handler = handler
        self.name = name or f"{host.name}:{port}"
        self._listener: Listener | None = None
        #: Count of requests served, for tests and capacity checks.
        self.requests_served = 0

    @property
    def running(self) -> bool:
        """True while the listener is bound."""
        return self._listener is not None and not self._listener.closed

    def start(self) -> "HttpServer":
        """Bind the port and begin accepting connections."""
        listener = self.host.listen(self.port)
        listener.on_connect(lambda conn: conn.on_receive(self._spawn))
        self._listener = listener
        return self

    def stop(self) -> None:
        """Unbind; existing connections keep draining, new ones refused."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- internals --------------------------------------------------------------

    def _spawn(self, conn: ConnectionEnd, payload: object) -> None:
        self.sim.process(self._serve(conn, payload), name=f"{self.name}/serve")

    def _serve(self, conn: ConnectionEnd, payload: object) -> _t.Generator:
        """One exchange; the connection's next request is taken after it.

        Parse, handler and reply share this one generator frame: every
        resume of a handler passes through each frame above it.
        """
        try:
            request = received_request(payload)
        except CodecError as exc:
            response = HttpResponse.error(http_status.BAD_REQUEST, str(exc))
        else:
            problem = None
            try:
                response = yield from self.handler(request)
            except Exception as exc:  # noqa: BLE001 - handler crash => 500
                problem = f"handler error: {type(exc).__name__}: {exc}"
            else:
                if not isinstance(response, HttpResponse):
                    problem = f"handler returned {type(response).__name__}, expected HttpResponse"
            rid = request.request_id
            if problem is not None:
                response = HttpResponse.error(
                    http_status.INTERNAL_SERVER_ERROR, problem, request_id=rid
                )
            # Echo the request ID so flows stay traceable end to end.
            if rid is not None and REQUEST_ID_HEADER not in response.headers:
                response.headers[REQUEST_ID_HEADER] = rid
        if conn.closed:
            return
        try:
            # Answered in the form it was addressed: a raw peer that
            # sent bytes reads bytes back.
            send_message(conn, response, as_bytes=isinstance(payload, bytes))
        except Exception:  # noqa: BLE001 - peer vanished mid-response
            return
        self.requests_served += 1
        conn.on_receive(self._spawn)

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<HttpServer {self.name} {state}>"

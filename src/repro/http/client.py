"""HTTP client over the simulated transport.

:meth:`HttpClient.call` is a *generator subroutine*: service handler
code running inside a simulation process invokes it with
``yield from``.  It opens a connection, sends the request in its wire
form (:mod:`repro.http.wire`), awaits the response, and surfaces every
fault-model observable as an exception (network errors, per-call
timeout, unparseable response).

This client is deliberately *naive* — no retries, no breaker, no
default timeout.  The resilience patterns live one layer up, in
:mod:`repro.microservice.resilience`, precisely so Gremlin tests can
distinguish services that adopted the patterns from services that did
not.
"""

from __future__ import annotations

import typing as _t

from repro.errors import RequestTimeoutError
from repro.http.message import HttpRequest, HttpResponse
from repro.http.wire import received_response, send_message
from repro.network.address import Address
from repro.network.transport import ConnectionEnd, Host
from repro.simulation.events import AnyOf, SimEvent
from repro.simulation.kernel import Simulator

__all__ = ["HttpClient", "await_with_deadline"]


def await_with_deadline(
    sim: Simulator, event: SimEvent, deadline: float | None
) -> _t.Generator[SimEvent, _t.Any, _t.Any]:
    """Wait for ``event``, but no later than absolute time ``deadline``.

    Generator subroutine (use with ``yield from``).  Returns the event's
    value; raises :class:`RequestTimeoutError` if the deadline passes
    first; propagates the event's failure exception otherwise.
    """
    try:
        if deadline is None:
            result = yield event
            return result
        remaining = deadline - sim.now
        if remaining <= 0:
            raise RequestTimeoutError(elapsed=0.0)
        timer = sim.timeout(remaining)
        winner = yield AnyOf(sim, [event, timer])
        if event in winner:
            return winner[event]
        raise RequestTimeoutError(elapsed=remaining)
    finally:
        # A failed event holds its exception, whose traceback holds this
        # frame: keeping the event would leave the whole failed exchange
        # (frames, connection, request) to the cycle collector.
        event = None


class HttpClient:
    """One-connection-per-request HTTP client for a simulated host."""

    def __init__(self, host: Host, default_timeout: float | None = None) -> None:
        self.host = host
        #: The simulator the owning host runs on.
        self.sim: Simulator = host.sim
        self.default_timeout = default_timeout

    def call(
        self,
        dst: Address,
        request: HttpRequest,
        timeout: float | None = None,
    ) -> _t.Generator[SimEvent, _t.Any, HttpResponse]:
        """Send ``request`` to ``dst`` and return the response.

        Generator subroutine (use with ``yield from`` inside a process).

        ``timeout`` bounds the *whole* call — connect plus response —
        in virtual seconds; ``None`` falls back to the client default,
        and if that is also ``None`` the call waits forever (which is
        exactly the missing-timeout anti-pattern Fig 5 exposes).

        Raises
        ------
        RequestTimeoutError
            The deadline expired before the response arrived.
        NetworkError subclasses
            Connection refused / reset / partitioned, per the transport.
        CodecError
            What came back is not a parseable response.
        """
        sim = self.sim
        budget = self.default_timeout if timeout is None else timeout
        deadline = None if budget is None else sim.now + budget

        conn: ConnectionEnd | None = None
        try:
            conn = yield from await_with_deadline(sim, self.host.connect(dst), deadline)
            send_message(conn, request)
            payload = yield from await_with_deadline(sim, conn.recv(), deadline)
        finally:
            # Abandon the connection whether we succeeded, timed out or
            # hit a transport error; late server responses are dropped.
            if conn is not None and not conn.closed:
                conn.close()
        return received_response(payload)

    def get(
        self, dst: Address, uri: str, timeout: float | None = None, **header_kwargs: str
    ) -> _t.Generator[SimEvent, _t.Any, HttpResponse]:
        """Shorthand for a GET call (generator subroutine)."""
        request = HttpRequest("GET", uri, dict(header_kwargs))
        response = yield from self.call(dst, request, timeout=timeout)
        return response

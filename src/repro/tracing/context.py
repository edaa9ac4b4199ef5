"""Request-ID and span-ID utilities.

IDs are deterministic per generator instance (seeded counter + random
suffix) so simulation runs are reproducible, yet unique across a run.
"""

from __future__ import annotations

import itertools

from repro.http.headers import REQUEST_ID_HEADER, SPAN_ID_HEADER
from repro.http.message import HttpRequest

__all__ = [
    "TEST_ID_PREFIX",
    "TRACE_HEADERS",
    "RequestIdGenerator",
    "SpanIdGenerator",
    "is_test_request_id",
    "propagate",
]

#: Headers a well-behaved service copies from its inbound request onto
#: every outbound call it makes on that request's behalf: the request
#: ID (trace identity) and the span ID of the enclosing call (so the
#: next hop's sidecar records it as the parent span).
TRACE_HEADERS = (REQUEST_ID_HEADER, SPAN_ID_HEADER)

#: ``TRACE_HEADERS`` beside the keys a ``Headers`` map files them under.
_TRACE_ENTRIES = tuple((header, header.lower()) for header in TRACE_HEADERS)

#: Prefix used for synthetic test traffic, matching the paper's
#: ``Pattern='test-*'`` rule examples.
TEST_ID_PREFIX = "test-"


class RequestIdGenerator:
    """Mints unique request IDs.

    ``prefix`` distinguishes traffic classes: ``test-`` for synthetic
    load (the flows Gremlin injects faults on) versus e.g. ``user-``
    for production-like background traffic that must pass unharmed.
    """

    def __init__(self, prefix: str = TEST_ID_PREFIX, start: int = 1) -> None:
        self.prefix = prefix
        self._counter = itertools.count(start)

    def next_id(self) -> str:
        """Return the next unique request ID, e.g. ``"test-17"``."""
        return f"{self.prefix}{next(self._counter)}"

    def __repr__(self) -> str:
        return f"RequestIdGenerator(prefix={self.prefix!r})"


class SpanIdGenerator:
    """Mints span IDs unique within one deployment.

    ``scope`` names the minting site — by convention the sidecar
    agent's owner instance (e.g. ``"svc-1-0"``) — so IDs minted by
    different agents can never collide and a span ID alone tells an
    operator which sidecar observed the call.
    """

    def __init__(self, scope: str, start: int = 1) -> None:
        self.scope = scope
        self._counter = itertools.count(start)

    def next_id(self) -> str:
        """Return the next unique span ID, e.g. ``"svc-1-0#3"``."""
        return f"{self.scope}#{next(self._counter)}"

    def __repr__(self) -> str:
        return f"SpanIdGenerator(scope={self.scope!r})"


def is_test_request_id(request_id: str | None) -> bool:
    """True if the ID marks synthetic test traffic."""
    return request_id is not None and request_id.startswith(TEST_ID_PREFIX)


def propagate(incoming: HttpRequest, outgoing: HttpRequest) -> HttpRequest:
    """Copy the trace headers from an inbound request onto an outbound one.

    This is what every well-behaved microservice does with trace
    headers; the reproduced service runtime calls it on each downstream
    call so a user request's flow is traceable end to end.  Both the
    request ID and the enclosing span ID propagate — the latter is how
    the next hop's sidecar knows its parent span, turning per-edge
    observations into a causal tree.  Returns ``outgoing`` for
    chaining.

    A proven incoming map (:class:`~repro.http.headers.Headers`) holds
    only pairs that passed the header proof, so its trace values are
    copied as entries under the canonical header, which is what a set
    would store: the outgoing map's proof is unchanged.  An unproven one
    goes through ``get`` and the set, header by header.
    """
    source = incoming.headers
    target = outgoing.headers
    if source._unproven:  # noqa: SLF001 - the map's proof mark
        for header in TRACE_HEADERS:
            value = source.get(header)
            if value is not None:
                target[header] = value
        return outgoing
    entries = source._entries  # noqa: SLF001 - proven pairs, read as stored
    for header, lowered in _TRACE_ENTRIES:
        entry = entries.get(lowered)
        if entry is not None:
            target._entries[lowered] = (header, entry[1])  # noqa: SLF001
    return outgoing

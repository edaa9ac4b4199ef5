"""The lazy wire form: what the peer would parse, without the bytes.

Nothing between a sender's ``encode`` and the next hop's ``decode``
reads the serialised head — faults rewrite ``message.body`` only — so a
sender hands the transport a *wire snapshot* instead: an independent
message that is field for field what ``decode(encode(message))`` would
have produced at send time (headers copied, ``Content-Length``
re-derived and placed last, body shared as immutable ``bytes``).  The
receiver uses it as it is.

:func:`wire_form` only takes that short cut for a message it can
*prove* round-trips unchanged.  The header pairs are proven where they
are stored (:class:`~repro.http.headers.Headers` tests each one it is
given and remembers a failure), so a hop checks method/URI/status/body
and walks the pairs only of a map that ever held a bad one — the
snapshot it forwards starts proven.  Anything else — a header key or value,
URI, method, status or body the codec would reject, strip or re-split —
is serialised by :func:`~repro.http.codec.encode` exactly as before and
travels as ``bytes``, so the sender and the receiver raise what they
always raised.  Bytes are also what a raw ``ConnectionEnd`` peer sends,
and an exchange is answered in the form it was addressed
(:func:`send_message` with ``as_bytes=True``).
"""

from __future__ import annotations

from repro.http.codec import (
    decode_request,
    decode_response,
    encode,
    encode_request,
    encode_response,
)
from repro.http.headers import Headers
from repro.http.message import _METHODS, HttpRequest, HttpResponse, Message
from repro.network.transport import ConnectionEnd, ExchangeEnd

__all__ = ["wire_form", "send_message", "received_request", "received_response"]


def wire_form(message: Message) -> Message | bytes:
    """``message`` as its peer will see it: a snapshot, or ``bytes``.

    Returns an independent copy equal to ``decode(encode(message))``
    when that is provable without serialising, else ``encode(message)``
    (which raises, for a message that cannot be serialised, what it
    always raised).
    """
    kind = type(message)
    if kind is HttpRequest:
        # ``head`` gathers the text whose character set is checked once.
        head = uri = message.uri
        if not (
            message.method in _METHODS
            and type(uri) is str
            and uri[:1] == "/"
            and " " not in uri
        ):
            return encode(message)
    elif kind is HttpResponse:
        head = ""
        status = message.status
        if not (type(status) is int and 100 <= status <= 599):
            return encode(message)
    else:
        return encode(message)
    headers = message.headers
    body = message.body
    if type(body) is not bytes or type(headers) is not Headers:
        return encode(message)
    entries = headers._entries.copy()  # noqa: SLF001 - same package
    entries.pop("content-length", None)
    unproven = headers._unproven  # noqa: SLF001
    if unproven:
        # Some pair failed the test ``Headers.__setitem__`` applies; it
        # may be gone again, so walk what is stored now: encode -> split
        # -> strip keeps a key with no colon or space and a value with no
        # edge space ...
        for key, value in entries.values():
            if ":" in key or " " in key or value[:1] == " " or value[-1:] == " ":
                return encode(message)
            head += key
            head += value
    # ... as long as all of it is printable ASCII.
    if not (head.isascii() and head.isprintable()):
        return encode(message)
    if unproven:
        headers._unproven = False  # noqa: SLF001 - every stored pair passed
    entries["content-length"] = ("Content-Length", str(len(body)))
    # Built field by field: the constructors would re-check what was just
    # proven, once per hop.
    snapshot = kind.__new__(kind)
    snapshot.headers = Headers.__new__(Headers)
    snapshot.headers._entries = entries  # noqa: SLF001
    snapshot.body = body
    if kind is HttpRequest:
        snapshot.method = message.method
        snapshot.uri = uri
    else:
        snapshot.status = status
    return snapshot


def send_message(
    conn: ConnectionEnd | ExchangeEnd, message: Message, as_bytes: bool = False
) -> None:
    """Send ``message`` over ``conn`` — a connection's end or an
    exchange's — in its wire form.

    ``as_bytes`` forces serialisation: the answer to an exchange that
    arrived as ``bytes`` (a raw peer reads bytes back).
    """
    unit = encode(message) if as_bytes else wire_form(message)
    if type(unit) is bytes:
        conn.send(unit)
    else:
        conn.send_parsed(unit)


def received_request(unit: object) -> HttpRequest:
    """The request a delivered data unit holds.

    A snapshot is returned as it is; ``bytes`` are parsed.  Raises
    :class:`~repro.errors.CodecError` for anything that is not a
    request, as the parser always did.
    """
    if type(unit) is HttpRequest:
        return unit
    if isinstance(unit, HttpResponse):
        unit = encode_response(unit)  # let the parser say what is wrong
    return decode_request(unit)


def received_response(unit: object) -> HttpResponse:
    """The response a delivered data unit holds; see :func:`received_request`."""
    if type(unit) is HttpResponse:
        return unit
    if isinstance(unit, HttpRequest):
        unit = encode_request(unit)
    return decode_response(unit)

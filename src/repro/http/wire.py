"""The lazy wire form: what the peer would parse, without the bytes.

Nothing between a sender's ``encode`` and the next hop's ``decode``
reads the serialised head — faults rewrite ``message.body`` only — so a
sender hands the transport a message instead: one that is field for
field what ``decode(encode(message))`` would have produced at send time
(``Content-Length`` re-derived and placed last, body shared as immutable
``bytes``).  The receiver uses it as it is, and owns it.

Who keeps the message decides which form travels:

* :func:`hand_on` — a sender that owns the message and never reads it
  again hands over the object itself (:func:`handed_form`).  That is the
  sidecar's forward and answer (it holds only what came off the wire or
  what it built) and the server's reply (it already writes into the
  handler's response).
* :func:`send_message` — a sender that keeps the message sends a *wire
  snapshot* (:func:`wire_form`), an independent copy.  That is the
  client: it re-sends one request on every attempt, and the sidecar
  stamps its span header into whatever it receives.

Both take the short cut only for a message they can *prove* round-trips
unchanged.  The header pairs are proven where they are stored
(:class:`~repro.http.headers.Headers` tests each one it is given and
remembers a failure), so a hop checks method/URI/status/body and walks
the pairs only of a map that ever held a bad one.  Anything else — a
header key or value, URI, method, status or body the codec would
reject, strip or re-split — is serialised by
:func:`~repro.http.codec.encode` exactly as before and travels as
``bytes``, so the sender and the receiver raise what they always
raised.  Bytes are also what a raw ``ConnectionEnd`` peer sends, and an
exchange is answered in the form it was addressed (``as_bytes=True``).
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

__all__ = [
    "wire_form",
    "handed_form",
    "send_message",
    "hand_on",
    "received_request",
    "received_response",
]


def handed_form(message: Message) -> Message | bytes:
    """``message`` itself in the form its peer will see, or ``bytes``.

    A message provably equal to ``decode(encode(message))`` but for its
    ``Content-Length`` has that header re-derived and placed last, in
    place, and is returned as it is; anything else is
    ``encode(message)`` (which raises, for a message that cannot be
    serialised, what it always raised).  For a sender that owns
    ``message`` and never reads it again (see :func:`hand_on`).
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
    entries = headers._entries  # noqa: SLF001 - same package
    unproven = headers._unproven  # noqa: SLF001
    if unproven:
        # Some pair failed the test ``Headers.__setitem__`` applies; it
        # may be gone again, so walk what is stored now: encode -> split
        # -> strip keeps a key with no colon or space and a value with no
        # edge space ...
        for lowered, (key, value) in entries.items():
            if lowered == "content-length":
                continue  # re-derived below
            if ":" in key or " " in key or value[:1] == " " or value[-1:] == " ":
                return encode(message)
            head += key
            head += value
    # ... as long as all of it is printable ASCII.
    if not (head.isascii() and head.isprintable()):
        return encode(message)
    if unproven:
        headers._unproven = False  # noqa: SLF001 - every stored pair passed
    entries.pop("content-length", None)
    entries["content-length"] = ("Content-Length", str(len(body)))
    return message


def wire_form(message: Message) -> Message | bytes:
    """``message`` as its peer will see it: a snapshot, or ``bytes``.

    The snapshot is a copy of ``message`` put through
    :func:`handed_form`: an independent message equal to
    ``decode(encode(message))``.  A message that cannot be proven is
    ``encode(message)``, as there.
    """
    kind = type(message)
    if kind is not HttpRequest and kind is not HttpResponse:
        return encode(message)
    headers = message.headers
    if type(headers) is not Headers:
        return encode(message)
    # Built field by field: the constructors would re-check what the
    # hand-off is about to prove.
    snapshot = kind.__new__(kind)
    snapshot.headers = copied = Headers.__new__(Headers)
    copied._entries = headers._entries.copy()  # noqa: SLF001 - same package
    unproven = headers._unproven  # noqa: SLF001
    if unproven:
        copied._unproven = True  # noqa: SLF001
    snapshot.body = message.body
    if kind is HttpRequest:
        snapshot.method = message.method
        snapshot.uri = message.uri
    else:
        snapshot.status = message.status
    unit = handed_form(snapshot)
    if unproven and unit is snapshot:
        headers._unproven = False  # noqa: SLF001 - the walk passed
    return unit


def send_message(
    conn: ConnectionEnd | ExchangeEnd, message: Message, as_bytes: bool = False
) -> None:
    """Send ``message`` over ``conn`` — a connection's end or an
    exchange's — as a wire snapshot: the sender keeps ``message``.

    ``as_bytes`` forces serialisation: the answer to an exchange that
    arrived as ``bytes`` (a raw peer reads bytes back).
    """
    unit = encode(message) if as_bytes else wire_form(message)
    if type(unit) is bytes:
        conn.send(unit)
    else:
        conn.send_parsed(unit)


def hand_on(
    conn: ConnectionEnd | ExchangeEnd, message: Message, as_bytes: bool = False
) -> None:
    """Send ``message`` over ``conn`` by handing it over: the receiver
    gets the object itself (:func:`handed_form`), and the sender must
    not read it again.  ``as_bytes`` as for :func:`send_message`.
    """
    unit = encode(message) if as_bytes else handed_form(message)
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

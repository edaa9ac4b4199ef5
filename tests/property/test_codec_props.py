"""Property-based tests for the HTTP wire codec."""

import string

from hypothesis import example, given, settings, strategies as st

from repro.errors import CodecError
from repro.http import (
    Headers,
    HttpRequest,
    HttpResponse,
    decode,
    decode_request,
    decode_response,
    encode,
    encode_request,
    encode_response,
    wire,
)

from tests.conftest import SpiedKey

_token = st.text(
    alphabet=string.ascii_letters + string.digits + "-_",
    min_size=1,
    max_size=24,
)
_header_value = st.text(
    alphabet=string.ascii_letters + string.digits + " -_./;=",
    min_size=0,
    max_size=40,
).map(str.strip)
_uri = _token.map(lambda s: "/" + s)
_method = st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"])
_status = st.integers(min_value=100, max_value=599)
_body = st.binary(max_size=512)
# Header names are case-insensitive, so generate lowercase keys only;
# otherwise {'P': ..., 'p': ...} collapses and the identity check fails
# for reasons unrelated to the codec.  Content-Length is codec-managed
# (always recomputed from the body), so user-supplied values are by
# design not round-tripped — exclude it.
_headers = st.dictionaries(
    _token.map(str.lower).filter(lambda key: key != "content-length"),
    _header_value,
    max_size=5,
)


class TestRequestRoundTrip:
    @given(method=_method, uri=_uri, headers=_headers, body=_body)
    @settings(max_examples=150)
    def test_encode_decode_identity(self, method, uri, headers, body):
        request = HttpRequest(method, uri, headers, body)
        decoded = decode_request(encode_request(request))
        assert decoded.method == method
        assert decoded.uri == uri
        assert decoded.body == body
        for key, value in headers.items():
            assert decoded.headers[key] == value

    @given(body=_body)
    @settings(max_examples=50)
    def test_body_length_always_exact(self, body):
        decoded = decode_request(encode_request(HttpRequest("POST", "/x", body=body)))
        assert len(decoded.body) == len(body)


class TestResponseRoundTrip:
    @given(status=_status, headers=_headers, body=_body)
    @settings(max_examples=150)
    def test_encode_decode_identity(self, status, headers, body):
        response = HttpResponse(status, headers, body)
        decoded = decode_response(encode_response(response))
        assert decoded.status == status
        assert decoded.body == body


class TestDecodeRobustness:
    @given(payload=st.binary(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_bytes_never_crash_uncontrolled(self, payload):
        """Decoding hostile bytes either parses or raises CodecError —
        never any other exception.  This is what lets Modify faults
        corrupt messages arbitrarily without breaking the simulator."""
        for decoder in (decode_request, decode_response):
            try:
                decoder(payload)
            except CodecError:
                pass

    @given(
        status=_status,
        body=st.binary(min_size=1, max_size=64),
        search=st.binary(min_size=1, max_size=4),
        replace=st.binary(max_size=8),
    )
    @settings(max_examples=100)
    def test_body_modification_keeps_message_parseable_or_codec_error(
        self, status, body, search, replace
    ):
        """Rewriting only the *body* after encoding mirrors what a
        Modify fault does to a decoded message: since Content-Length is
        recomputed on re-encode, the result always parses."""
        from repro.agent import modify
        from repro.agent.faults import modify_response

        rule = modify("A", "B", pattern=search, replace_bytes=replace)
        response = HttpResponse(status, body=body)
        rewritten = modify_response(rule, response)
        decoded = decode_response(encode_response(rewritten))
        assert decoded.body == body.replace(search, replace)


# -- the wire snapshot is the codec's round trip, without the bytes ---------------

# Harmless text with, at either edge or in the middle, a character the
# codec strips, splits on or rejects.
_hazard = st.sampled_from(
    ["", "", " ", "\t", "\r", "\n", "\r\n", ":", "|", "\xa0", "\xe9", "\u2003", "\ud800"]
)
_core = st.text(alphabet=string.ascii_letters + string.digits + "-_/", max_size=6)
_hostile_text = st.tuples(_hazard, _core, _hazard, _core, _hazard).map("".join)
_hostile_uri = st.one_of(_hostile_text, _hostile_text.map(lambda s: "/" + s), st.none())
_hostile_method = st.sampled_from(["get", "BREW", "GET /x", "", None])
_hostile_status = st.one_of(
    st.integers(-10, 99), st.integers(600, 1200), st.sampled_from([True, 200.0, "200", None])
)
_hostile_body = st.one_of(_body.map(bytearray), st.text(max_size=8), st.none())


@st.composite
def _spoiled(draw, kind):
    """A valid message with up to two fields assigned, after construction,
    something the codec may reject, strip, re-split or re-order — so each
    rule of the short cut is reached from an otherwise clean message."""
    if kind is HttpRequest:
        message = HttpRequest(draw(_method), draw(_uri), draw(_headers), draw(_body))
        spoils = ["method", "uri"]
    else:
        message = HttpResponse(draw(_status), draw(_headers), draw(_body))
        spoils = ["status"]
    spoils += ["key", "value", "number", "length", "body", "dict"]
    for spoil in draw(st.lists(st.sampled_from(spoils), max_size=2)):
        if spoil == "method":
            message.method = draw(_hostile_method)
        elif spoil == "uri":
            message.uri = draw(_hostile_uri)
        elif spoil == "status":
            message.status = draw(_hostile_status)
        elif spoil == "body":
            message.body = draw(_hostile_body)
        elif spoil == "dict":
            message.headers = dict(message.headers.items())
        elif isinstance(message.headers, Headers):
            if spoil == "key":
                message.headers[draw(_hostile_text)] = draw(_header_value)
            elif spoil == "value":
                message.headers[draw(_token)] = draw(_hostile_text)
            elif spoil == "number":
                message.headers[draw(_token)] = draw(st.integers(-5, 5000))
            else:
                message.headers[draw(st.sampled_from(["content-length", "CONTENT-LENGTH"]))] = "999"
                message.headers[draw(_token)] = draw(_header_value)
    return message


def _through_codec(message):
    return decode(encode(message))


def _through_wire(message):
    """What the peer ends up holding: the snapshot, or the parsed bytes."""
    unit = wire.wire_form(message)
    return decode(unit) if isinstance(unit, bytes) else unit


def _outcome(passage, message):
    try:
        arrived = passage(message)
    except Exception as exc:  # noqa: BLE001 - the exception type *is* the outcome
        return type(exc)
    start = (
        (arrived.method, arrived.uri)
        if isinstance(arrived, HttpRequest)
        else (arrived.status,)
    )
    return (type(arrived), start, list(arrived.headers.items()), type(arrived.body), arrived.body)


def _witnesses():
    """One message per rule of the short cut, each otherwise clean, so a
    dropped rule fails here whatever the random sweep happens to draw."""
    for key in ["a:b", "a b", " a", "a ", "a\r\nb", "\xe9", "\ud800", ""]:
        yield HttpRequest("GET", "/x", Headers([("X-Ok", "1"), (key, "v")]))
    for value in [" v", "v ", " ", "\tv", "v\n", "a\r\nb", "a\nb", "\xe9", "\xa0v", "\ud800", ""]:
        yield HttpResponse(200, Headers([("X-Ok", "1"), ("X-Value", value)]), b"body")
    for uri in ["/a b", "/a\tb", "/\xe9", "/a\r\nb", "x", "", None, 7]:
        request = HttpRequest("GET", "/x", {"X-Ok": "1"})
        request.uri = uri
        yield request
    for method in ["get", "BREW", "GET /x", "", None]:
        request = HttpRequest("GET", "/x")
        request.method = method
        yield request
    for status in [99, 600, True, 200.0, "200", None]:
        response = HttpResponse(200, body=b"ok")
        response.status = status
        yield response
    for body in [bytearray(b"ab"), "text", None, memoryview(b"ab")]:
        response = HttpResponse(200, {"X-Ok": "1"})
        response.body = body
        yield response
    request = HttpRequest("POST", "/x", body=b"ab")
    request.headers = {"X-Plain": "dict"}
    yield request
    # Content-Length is re-derived, re-cased and moved last.
    yield HttpRequest("POST", "/x", Headers([("content-LENGTH", "999"), ("X-After", "1")]), b"ab")


def _with_witnesses(test):
    for message in _witnesses():
        test = example(message=message)(test)
    return test


class TestWireSnapshotIsTheRoundTrip:
    @_with_witnesses
    @given(message=st.one_of(_spoiled(HttpRequest), _spoiled(HttpResponse)))
    @settings(max_examples=400)
    def test_any_message_arrives_as_the_codec_would_deliver_it(self, message):
        assert _outcome(_through_wire, message) == _outcome(_through_codec, message)

    @given(method=_method, uri=_uri, headers=_headers, body=_body, status=_status)
    @settings(max_examples=100)
    def test_clean_messages_are_never_serialised(self, method, uri, headers, body, status):
        for message in (HttpRequest(method, uri, headers, body), HttpResponse(status, headers, body)):
            snapshot = wire.wire_form(message)
            assert type(snapshot) is type(message) and snapshot is not message
            assert _outcome(lambda m: snapshot, message) == _outcome(_through_codec, message)

    @given(headers=_headers, body=_body, key=_token, value=_header_value)
    @settings(max_examples=100)
    def test_snapshot_and_source_are_independent(self, headers, body, key, value):
        request = HttpRequest("POST", "/x", headers, body)
        before = list(request.headers.items())
        snapshot = wire.wire_form(request)
        arrived = list(snapshot.headers.items())
        snapshot.headers[key] = value
        snapshot.headers["X-Gremlin-Span-Id"] = "stamped-by-the-sidecar"
        snapshot.body = b"rewritten"
        assert list(request.headers.items()) == before and request.body == body
        fresh = wire.wire_form(request)
        request.headers[key] = value + "!"
        request.body = b"resent"
        assert list(fresh.headers.items()) == arrived and fresh.body == body


# -- the header proof is the old walk, whatever order the map was written in ------

_proof_key = st.one_of(
    st.sampled_from(["X-A", "x-a", "X-B", "Content-Length", "content-length", "X-Gremlin-Span-Id"]),
    st.sampled_from(["a:b", "a b", " a", "a ", "a\tb", "\xe9", "a\x7f", "a\r\nb", ""]),
    _hostile_text,
)
_proof_value = st.one_of(
    _header_value,
    st.sampled_from([" v", "v ", " ", "in ner", "\tv", "v\n", "\xe9", "\xa0v", "a\x00b", "999"]),
    _hostile_text,
    st.integers(-5, 5000),
)
_proof_op = st.one_of(
    st.tuples(st.just("set"), _proof_key, _proof_value),
    st.tuples(st.just("setdefault"), _proof_key, _proof_value),
    st.tuples(st.just("del"), _proof_key),
    st.tuples(st.sampled_from(["copy", "from-dict", "send"])),
)


def _old_walk_passes(message):
    """The walk ``wire_form`` made over every map on every hop before
    headers carried their proof, kept here as the oracle."""
    head = message.uri if isinstance(message, HttpRequest) else ""
    for key, value in message.headers.items():
        if key.lower() == "content-length":
            continue
        if ":" in key or " " in key or value[:1] == " " or value[-1:] == " ":
            return False
        head += key
        head += value
    return head.isascii() and head.isprintable()


def _sent(message):
    """``wire_form(message)`` checked against the oracle; returns the unit."""
    expected_snapshot = _old_walk_passes(message)
    try:
        unit = wire.wire_form(message)
    except Exception as exc:  # noqa: BLE001 - must be what encode raises
        assert not expected_snapshot
        assert _outcome(encode, message) == type(exc)
        return None
    if expected_snapshot:
        assert type(unit) is type(message) and unit is not message
        assert _outcome(lambda m: unit, message) == _outcome(_through_codec, message)
    else:
        assert type(unit) is bytes and unit == encode(message)
    return unit


class TestHeaderProofIsTheOldWalk:
    @given(
        start=st.one_of(_headers, st.dictionaries(_proof_key, _proof_value, max_size=3)),
        ops=st.lists(_proof_op, max_size=8),
        as_request=st.booleans(),
    )
    @example(start={}, ops=[("set", "X-A", " v"), ("send",), ("del", "x-a")], as_request=True)
    @example(start={"a:b": "v"}, ops=[("copy",), ("del", "a:b")], as_request=False)
    @example(start={}, ops=[("set", "X-A", "\xe9"), ("set", "x-a", "ok")], as_request=True)
    @example(start={}, ops=[("set", "CONTENT-LENGTH", " 9 "), ("from-dict",)], as_request=False)
    @settings(max_examples=400)
    def test_any_mutation_order_travels_as_the_walk_says(self, start, ops, as_request):
        message = (
            HttpRequest("POST", "/x", start, b"ab") if as_request else HttpResponse(200, start, b"ab")
        )
        for op, *args in ops:
            headers = message.headers
            if op == "set":
                headers[args[0]] = args[1]
            elif op == "setdefault":
                headers.setdefault(*args)
            elif op == "del":
                if args[0] in headers:
                    del headers[args[0]]
            elif op == "copy":
                message.headers = headers.copy()
            elif op == "from-dict":
                message.headers = Headers(headers.to_dict())
            else:
                _sent(message)  # a send in between may clear the mark, never set it wrong
        _sent(message)

    @given(key=_proof_key, value=_proof_value, clean=_headers)
    @settings(max_examples=100)
    def test_deleting_the_offender_restores_the_snapshot(self, key, value, clean):
        request = HttpRequest("GET", "/x", clean)
        if key in request.headers or key.lower() == "content-length":
            return
        request.headers[key] = value
        _sent(request)
        del request.headers[key]
        assert type(_sent(request)) is HttpRequest

    @given(headers=_headers, body=_body, hops=st.integers(1, 4))
    @settings(max_examples=50)
    def test_a_forwarded_snapshot_is_not_walked_again(self, headers, body, hops):
        spied = SpiedKey("X-Spied")
        request = HttpRequest("POST", "/x", Headers([(spied, "1"), *headers.items()]), body)
        assert spied.tested == 1  # tested where it was stored
        for hop in range(hops):
            request = wire.wire_form(request)  # (the oracle would read the key too)
            assert type(request) is HttpRequest
            # The sidecar stamps its span ID on what it received.
            request.headers["X-Gremlin-Span-Id"] = f"svc-1-0#{hop}"
        assert spied.tested == 1

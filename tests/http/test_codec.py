"""Unit tests for the HTTP wire codec."""

import pytest

from repro.errors import CodecError
from repro.http import (
    HttpRequest,
    HttpResponse,
    decode,
    decode_request,
    decode_response,
    encode,
    encode_request,
    encode_response,
)


class TestRoundTrip:
    def test_request_round_trip(self):
        request = HttpRequest("POST", "/api/charge", {"X-K": "v"}, body=b"amount=5")
        request.request_id = "test-3"
        decoded = decode_request(encode_request(request))
        assert decoded.method == "POST"
        assert decoded.uri == "/api/charge"
        assert decoded.headers["x-k"] == "v"
        assert decoded.request_id == "test-3"
        assert decoded.body == b"amount=5"

    def test_response_round_trip(self):
        response = HttpResponse(503, {"Retry-After": "30"}, body=b"overloaded")
        decoded = decode_response(encode_response(response))
        assert decoded.status == 503
        assert decoded.headers["retry-after"] == "30"
        assert decoded.body == b"overloaded"

    def test_generic_encode_decode(self):
        request_wire = encode(HttpRequest("GET", "/x"))
        response_wire = encode(HttpResponse(200))
        assert isinstance(decode(request_wire), HttpRequest)
        assert isinstance(decode(response_wire), HttpResponse)

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            encode("not a message")

    def test_empty_body(self):
        decoded = decode_request(encode_request(HttpRequest("GET", "/")))
        assert decoded.body == b""

    def test_binary_body_preserved(self):
        body = bytes(range(256))
        decoded = decode_response(encode_response(HttpResponse(200, body=body)))
        assert decoded.body == body

    def test_content_length_always_derived(self):
        request = HttpRequest("POST", "/x", {"Content-Length": "999"}, body=b"ab")
        decoded = decode_request(encode_request(request))
        assert decoded.body == b"ab"


class TestMalformedInput:
    def test_no_separator(self):
        with pytest.raises(CodecError):
            decode_request(b"GET /x HTTP/1.1")

    def test_bad_request_line(self):
        with pytest.raises(CodecError):
            decode_request(b"GETx\r\n\r\n")

    def test_wrong_version(self):
        with pytest.raises(CodecError):
            decode_request(b"GET /x HTTP/9.9\r\n\r\n")

    def test_bad_status_line(self):
        with pytest.raises(CodecError):
            decode_response(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(CodecError):
            decode_request(b"GET /x HTTP/1.1\r\nnocolonhere\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(CodecError):
            decode_request(b"GET /x HTTP/1.1\r\nContent-Length: many\r\n\r\n")

    def test_content_length_exceeds_payload(self):
        with pytest.raises(CodecError):
            decode_request(b"GET /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")

    def test_non_bytes_payload(self):
        with pytest.raises(CodecError):
            decode_request("a string")

    @pytest.mark.parametrize("payload", ["GET / HTTP/1.1\r\n\r\n", 12, None])
    def test_generic_decode_rejects_non_bytes_like_the_typed_decoders(self, payload):
        for decoder in (decode, decode_request, decode_response):
            with pytest.raises(CodecError, match="payload must be bytes"):
                decoder(payload)

    def test_corrupted_status_code_out_of_range(self):
        # A Modify fault can turn "200" into garbage; parsing must fail
        # loudly (the paper's "invalid responses" failure mode).
        wire = encode_response(HttpResponse(200)).replace(b" 200 ", b" 999 ")
        with pytest.raises(CodecError):
            decode_response(wire)

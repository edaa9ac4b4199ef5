"""Unit tests for HttpRequest / HttpResponse."""

import pytest

from repro.http import Headers, HttpRequest, HttpResponse, REQUEST_ID_HEADER


class TestHttpRequest:
    def test_basic_construction(self):
        request = HttpRequest("GET", "/search?q=x")
        assert request.method == "GET"
        assert request.uri == "/search?q=x"
        assert request.body == b""

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("FETCH", "/x")

    def test_relative_uri_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "no-leading-slash")

    def test_str_body_encoded(self):
        request = HttpRequest("POST", "/x", body="hello")
        assert request.body == b"hello"

    def test_dict_headers_coerced(self):
        request = HttpRequest("GET", "/x", headers={"A": "1"})
        assert request.headers["a"] == "1"

    def test_request_id_property(self):
        request = HttpRequest("GET", "/x")
        assert request.request_id is None
        request.request_id = "test-7"
        assert request.request_id == "test-7"
        assert request.headers[REQUEST_ID_HEADER] == "test-7"

    def test_copy_independent(self):
        request = HttpRequest("GET", "/x", body=b"abc")
        request.request_id = "test-1"
        duplicate = request.copy()
        duplicate.request_id = "test-2"
        duplicate.body = b"xyz"
        assert request.request_id == "test-1"
        assert request.body == b"abc"


class TestHttpResponse:
    def test_basic_construction(self):
        response = HttpResponse(200, body=b"ok")
        assert response.ok
        assert not response.is_error
        assert response.reason == "OK"

    def test_error_classification(self):
        assert HttpResponse(503).is_error
        assert HttpResponse(404).is_error
        assert not HttpResponse(301).is_error

    @pytest.mark.parametrize("status", [99, 600, 1000])
    def test_status_range_enforced(self, status):
        with pytest.raises(ValueError):
            HttpResponse(status)

    def test_text_decoding(self):
        assert HttpResponse(200, body="héllo").text() == "héllo"

    def test_error_constructor(self):
        response = HttpResponse.error(503, "down", request_id="test-9")
        assert response.status == 503
        assert response.request_id == "test-9"
        assert b"down" in response.body

    def test_error_constructor_default_body(self):
        assert b"Service Unavailable" in HttpResponse.error(503).body

    def test_copy_independent(self):
        response = HttpResponse(200, body=b"abc")
        duplicate = response.copy()
        duplicate.body = b"changed"
        assert response.body == b"abc"


@pytest.mark.parametrize(
    "build",
    [
        lambda headers: HttpRequest("GET", "/x", headers),
        lambda headers: HttpResponse(200, headers),
    ],
    ids=["request", "response"],
)
def test_pairs_headers_coerced(build):
    """A list of pairs, which ``Headers`` accepts, becomes ``Headers``
    like a dict does, so the message reads it as a header map."""
    message = build([("A", "1"), (REQUEST_ID_HEADER, "test-3")])
    assert type(message.headers) is Headers
    assert message.headers["a"] == "1"
    assert message.request_id == "test-3"

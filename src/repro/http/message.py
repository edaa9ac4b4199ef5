"""HTTP request/response message objects.

These are the Layer-7 payloads the Gremlin agents intercept, match,
manipulate and log (paper Table 2: "Messages in this context are
application layer payloads (Layer 7), without TCP/IP headers").
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.http.headers import REQUEST_ID_HEADER, Headers
from repro.http.status import is_error, is_success, reason_phrase

__all__ = ["HttpRequest", "HttpResponse"]

_METHODS = ("GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS")


@dataclasses.dataclass
class HttpRequest:
    """An HTTP request.

    ``body`` is ``bytes`` so Modify faults operate on real payload
    bytes.  ``headers`` carries the propagated request ID.
    """

    method: str
    uri: str
    headers: Headers = dataclasses.field(default_factory=Headers)
    body: bytes = b""

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unsupported HTTP method {self.method!r}")
        if not self.uri.startswith("/"):
            raise ValueError(f"request URI must start with '/', got {self.uri!r}")
        if not isinstance(self.headers, Headers):
            self.headers = Headers(self.headers)
        if isinstance(self.body, str):
            self.body = self.body.encode("utf-8")

    @property
    def request_id(self) -> str | None:
        """The propagated request ID, or None for untraced traffic."""
        return self.headers.get(REQUEST_ID_HEADER)

    @request_id.setter
    def request_id(self, value: str) -> None:
        self.headers[REQUEST_ID_HEADER] = value

    def copy(self) -> "HttpRequest":
        """Deep-enough copy: headers and body are independent."""
        return HttpRequest(self.method, self.uri, self.headers.copy(), bytes(self.body))

    def __repr__(self) -> str:
        rid = self.request_id
        tag = f" id={rid}" if rid else ""
        return f"<HttpRequest {self.method} {self.uri}{tag}>"


@dataclasses.dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    headers: Headers = dataclasses.field(default_factory=Headers)
    body: bytes = b""

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"status must be a 3-digit HTTP code, got {self.status}")
        if not isinstance(self.headers, Headers):
            self.headers = Headers(self.headers)
        if isinstance(self.body, str):
            self.body = self.body.encode("utf-8")

    @property
    def reason(self) -> str:
        """Reason phrase for the status code."""
        return reason_phrase(self.status)

    @property
    def ok(self) -> bool:
        """True for 2xx responses."""
        return is_success(self.status)

    @property
    def is_error(self) -> bool:
        """True for 4xx/5xx responses."""
        return is_error(self.status)

    @property
    def request_id(self) -> str | None:
        """Request ID echoed on the response, if any."""
        return self.headers.get(REQUEST_ID_HEADER)

    def text(self, encoding: str = "utf-8") -> str:
        """Body decoded as text."""
        return self.body.decode(encoding)

    def copy(self) -> "HttpResponse":
        """Deep-enough copy: headers and body are independent."""
        return HttpResponse(self.status, self.headers.copy(), bytes(self.body))

    @classmethod
    def error(
        cls, status: int, message: str = "", request_id: str | None = None
    ) -> "HttpResponse":
        """Convenience constructor for error responses (used by Abort)."""
        headers = Headers()
        if request_id is not None:
            headers[REQUEST_ID_HEADER] = request_id
        body = message or reason_phrase(status)
        return cls(status, headers, body.encode("utf-8"))

    def __repr__(self) -> str:
        return f"<HttpResponse {self.status} {self.reason}>"


Message = _t.Union[HttpRequest, HttpResponse]
__all__.append("Message")

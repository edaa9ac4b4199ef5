"""HTTP-like Layer-7 substrate: messages, wire codec, client, server.

All inter-service communication in the reproduced applications flows
through this package, which is what lets the Gremlin agents intercept,
match, log, and manipulate it (observation O1 of the paper: "Touch the
network, not the app").
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "client": ["HttpClient", "await_with_deadline"],
        "codec": [
            "decode",
            "decode_request",
            "decode_response",
            "encode",
            "encode_request",
            "encode_response",
        ],
        "headers": ["Headers", "REQUEST_ID_HEADER", "SPAN_ID_HEADER"],
        "message": ["HttpRequest", "HttpResponse"],
        "server": ["Handler", "HttpServer"],
        "status": [
            "BAD_GATEWAY",
            "GATEWAY_TIMEOUT",
            "INTERNAL_SERVER_ERROR",
            "NOT_FOUND",
            "OK",
            "SERVICE_UNAVAILABLE",
            "is_error",
            "is_success",
            "reason_phrase",
        ],
    },
)

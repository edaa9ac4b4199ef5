"""HTTP status codes and reason phrases.

Only the subset relevant to the paper appears by name (200, 404, 503,
...), but arbitrary three-digit codes are accepted, since a Gremlin
``Abort`` rule may return any application-level error code.
"""

from __future__ import annotations

__all__ = [
    "REASON_PHRASES",
    "reason_phrase",
    "is_success",
    "is_error",
    "OK",
    "NO_CONTENT",
    "BAD_REQUEST",
    "UNAUTHORIZED",
    "FORBIDDEN",
    "NOT_FOUND",
    "REQUEST_TIMEOUT",
    "TOO_MANY_REQUESTS",
    "INTERNAL_SERVER_ERROR",
    "BAD_GATEWAY",
    "SERVICE_UNAVAILABLE",
    "GATEWAY_TIMEOUT",
]

OK = 200
NO_CONTENT = 204
BAD_REQUEST = 400
UNAUTHORIZED = 401
FORBIDDEN = 403
NOT_FOUND = 404
REQUEST_TIMEOUT = 408
TOO_MANY_REQUESTS = 429
INTERNAL_SERVER_ERROR = 500
BAD_GATEWAY = 502
SERVICE_UNAVAILABLE = 503
GATEWAY_TIMEOUT = 504

REASON_PHRASES: dict[int, str] = {
    100: "Continue",
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def reason_phrase(status: int) -> str:
    """Human-readable phrase for ``status`` (generic fallback)."""
    return REASON_PHRASES.get(status, "Unknown")


def is_success(status: int) -> bool:
    """2xx."""
    return 200 <= status < 300


def is_error(status: int) -> bool:
    """4xx or 5xx — what retry policies and breakers count as failures."""
    return 400 <= status < 600

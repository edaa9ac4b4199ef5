"""Reusable handler factories for building application topologies.

Real microservices differ in business logic but share a few structural
shapes; these factories cover the shapes the paper's case studies and
benchmarks need, so topology modules stay declarative.
"""

from __future__ import annotations

import typing as _t

from repro.errors import HttpError, NetworkError
from repro.http.message import HttpRequest, HttpResponse
from repro.microservice.service import ServiceContext

__all__ = [
    "ABSORBED",
    "static_handler",
    "fanout_handler",
    "chain_handler",
    "proxy_handler",
    "cache_handler",
    "store_handler",
    "credential_handler",
]

#: The dependency-call failures a service handles itself: the network
#: refused or reset the call, or the client's policy gave up on it.
ABSORBED = (NetworkError, HttpError)


def static_handler(status: int = 200, body: bytes = b"ok") -> _t.Callable:
    """A leaf handler that burns service time and answers statically."""

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        return HttpResponse(status, body=body)

    return handler


def fanout_handler(
    dependencies: _t.Sequence[str],
    degrade_status: int = 500,
    partial_ok: bool = False,
) -> _t.Callable:
    """Call every dependency sequentially, then answer.

    ``partial_ok=True`` makes the service degrade gracefully: a failed
    dependency is noted in the body but the response is still 200 —
    the behaviour of a service with working fallbacks.  With
    ``partial_ok=False`` the first dependency failure turns into
    ``degrade_status``, modelling a service whose response *requires*
    all its dependencies (the shape that cascades).
    """

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        failures = []
        for dependency in dependencies:
            downstream = HttpRequest("GET", f"/{dependency.lower()}")
            try:
                response = yield from ctx.call(dependency, downstream, parent=request)
            except Exception as exc:  # noqa: BLE001 - any dependency failure
                failures.append(f"{dependency}:{type(exc).__name__}")
                response = None
            if response is not None and response.status >= 500:
                failures.append(f"{dependency}:{response.status}")
            if failures and not partial_ok:
                return HttpResponse(
                    degrade_status,
                    body=f"dependency failure: {failures[0]}".encode("utf-8"),
                )
        body = b"ok" if not failures else ("degraded: " + ",".join(failures)).encode("utf-8")
        return HttpResponse(200, body=body)

    return handler


def chain_handler(next_service: _t.Optional[str]) -> _t.Callable:
    """Pass-through chain hop: call the next service, relay its status.

    ``None`` makes it a chain terminator (static 200).
    """
    if next_service is None:
        return static_handler()

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        downstream = HttpRequest("GET", request.uri)
        try:
            response = yield from ctx.call(next_service, downstream, parent=request)
        except Exception as exc:  # noqa: BLE001
            return HttpResponse(502, body=f"chain broken: {type(exc).__name__}".encode())
        return HttpResponse(response.status, body=response.body)

    return handler


def proxy_handler(backend: str) -> _t.Callable:
    """Forward the inbound request to one backend verbatim."""

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        downstream = HttpRequest(request.method, request.uri, body=request.body)
        response = yield from ctx.call(backend, downstream, parent=request)
        return response

    return handler


def cache_handler(ctx: ServiceContext, request: HttpRequest):
    """Memcached-style leaf: first read of a key misses and populates."""
    yield from ctx.work()
    keys = ctx.state.setdefault("keys", set())
    key = request.path
    if key in keys:
        return HttpResponse(200, body=b"cache hit")
    keys.add(key)
    return HttpResponse(404, body=b"cache miss")


def store_handler(
    store: str,
    method: str,
    path: str,
    *,
    ok: str,
    unavailable: str,
    degraded: str,
    cache: _t.Optional[_t.Tuple[str, str]] = None,
) -> _t.Callable:
    """One ``method path`` call to an authoritative store, then answer.

    ``cache`` is an optional ``(service, path)`` probed with a GET first;
    its reply and its failure are both ignored.  The store answers the
    request: a call that fails is 503 ``unavailable``, a 5xx reply is
    503 ``degraded``, anything else is 200 ``ok``.
    """
    ok_body = ok.encode()
    unavailable_body = unavailable.encode()
    degraded_body = degraded.encode()

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        if cache is not None:
            try:
                yield from ctx.call(cache[0], HttpRequest("GET", cache[1]), parent=request)
            except ABSORBED:
                pass
        try:
            reply = yield from ctx.call(store, HttpRequest(method, path), parent=request)
        except ABSORBED:
            return HttpResponse(503, body=unavailable_body)
        if reply.status >= 500:
            return HttpResponse(503, body=degraded_body)
        return HttpResponse(200, body=ok_body)

    return handler


def credential_handler(
    store: str,
    path: str,
    label: str,
    validate_status: bool,
    cache: _t.Optional[_t.Tuple[str, str]] = None,
) -> _t.Callable:
    """Credential check: a GET of ``path`` on the authoritative ``store``.

    ``cache`` is an optional ``(service, path)`` probed with a GET first
    and ignored: profile data is decorative, credentials are not.  With
    ``validate_status`` an unexpected store status (a renamed endpoint
    after a bad deploy — 404s, 400s) answers "<label> defaulted".
    Without it any non-200 is assumed transient and re-asked, up to
    eight times in a tight loop — the planted misconfiguration
    amplifier: a misconfigured endpoint answers 404 forever.
    """
    ok_body = f"{label} ok".encode()
    defaulted_body = f"{label} defaulted".encode()
    unavailable_body = f"{label} backend unavailable".encode()
    failed_body = f"{label} lookup failed".encode()

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        if cache is not None:
            try:
                yield from ctx.call(cache[0], HttpRequest("GET", cache[1]), parent=request)
            except ABSORBED:
                pass
        if validate_status:
            try:
                creds = yield from ctx.call(store, HttpRequest("GET", path), parent=request)
            except ABSORBED:
                return HttpResponse(503, body=unavailable_body)
            if creds.status == 200:
                return HttpResponse(200, body=ok_body)
            return HttpResponse(200, body=defaulted_body)
        for _attempt in range(8):
            try:
                creds = yield from ctx.call(store, HttpRequest("GET", path), parent=request)
            except ABSORBED:
                continue
            if creds.status == 200:
                return HttpResponse(200, body=ok_body)
        return HttpResponse(500, body=failed_body)

    return handler

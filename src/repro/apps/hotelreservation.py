"""A simulated DeathStarBench-class hotel reservation app (20 services).

Modelled on the hotelReservation application of the DeathStarBench
suite: a frontend fans out into authentication, hotel search (geo +
rate lookup), profile hydration, recommendations, reviews, a nearby
attractions widget, and the reservation write path — each backed by
memcached-style caches and mongodb-style datastores.

``build_hotelreservation_app(hardened=True)`` is the hardened build:
timeouts everywhere, bounded retries plus a breaker with a cached-rate
fallback on the rate store, queued-write fallback on the reservation
store, and graceful degradation for decorative widgets.  The default
naive build carries four planted weaknesses:

* ``rate -> rate-store``: eight flat-backoff retries, no breaker — a
  retry storm amplifier (fails ``HasBoundedRetries``);
* ``reservation -> reservation-store``: no timeout — a gray failure
  or stall at the store hangs the booking path (fails
  ``HasTimeouts``);
* ``profile -> profile-store``: no timeout — resource exhaustion at
  the store stalls profile hydration unboundedly (fails
  ``HasTimeouts``);
* ``auth``: treats any unexpected credential-store status as
  transient and re-asks in a tight loop — a misconfigured endpoint
  triggers unbounded hammering (fails ``HasBoundedRetries``).
"""

from __future__ import annotations

import typing as _t

from repro.http.message import HttpRequest, HttpResponse
from repro.microservice.app import Application
from repro.microservice.handlers import (
    ABSORBED,
    cache_handler,
    credential_handler,
    fanout_handler,
    store_handler,
)
from repro.microservice.resilience.policy import PolicySpec
from repro.microservice.service import ServiceContext, ServiceDefinition

__all__ = ["HOTELRESERVATION_SERVICES", "build_hotelreservation_app"]

#: All 20 services, frontend to storage tier (documentation order).
HOTELRESERVATION_SERVICES: _t.Tuple[str, ...] = (
    "frontend",
    "search",
    "geo",
    "rate",
    "profile",
    "recommendation",
    "auth",
    "reservation",
    "review",
    "attractions",
    "rate-cache",
    "rate-store",
    "geo-store",
    "profile-cache",
    "profile-store",
    "recommendation-store",
    "auth-store",
    "reservation-cache",
    "reservation-store",
    "review-store",
)


def _frontend_handler(ctx: ServiceContext, request: HttpRequest):
    """Book a room: auth, search, profile, and the reservation write
    are mandatory; recommendations, reviews, and the attractions widget
    only degrade the page body when they fail."""
    yield from ctx.work()
    for mandatory in ("auth", "search", "profile", "reservation"):
        try:
            reply = yield from ctx.call(
                mandatory, HttpRequest("GET", f"/api/{mandatory}"), parent=request
            )
        except ABSORBED:
            return HttpResponse(503, body=f"dependency failure: {mandatory}".encode())
        if reply.status >= 500:
            return HttpResponse(502, body=f"dependency failure: {mandatory}".encode())
    degraded = []
    for widget in ("recommendation", "review", "attractions"):
        try:
            reply = yield from ctx.call(
                widget, HttpRequest("GET", f"/api/{widget}"), parent=request
            )
            if reply.status >= 500:
                degraded.append(widget)
        except ABSORBED:
            degraded.append(widget)
    if degraded:
        return HttpResponse(200, body=("booking ok, degraded: " + ",".join(degraded)).encode())
    return HttpResponse(200, body=b"booking ok")


def build_hotelreservation_app(hardened: bool = False) -> Application:
    """The 20-service hotel reservation app; ``hardened`` picks the
    policies."""

    def edge(timeout: float, **kwargs) -> PolicySpec:
        return PolicySpec(timeout=timeout, **kwargs) if hardened else PolicySpec.naive()

    if hardened:
        rate_store_policy = PolicySpec(
            timeout=0.3,
            max_retries=1,
            breaker_failure_threshold=5,
            breaker_recovery_timeout=10.0,
            fallback=lambda request: HttpResponse(200, body=b"rates ok (cached)"),
        )
        reservation_store_policy = PolicySpec(
            timeout=0.3,
            fallback=lambda request: HttpResponse(200, body=b"reservation queued"),
        )
        profile_store_policy = PolicySpec(
            timeout=0.3,
            fallback=lambda request: HttpResponse(200, body=b"profiles ok (stale)"),
        )
    else:
        # The planted retry storm: eight flat near-zero-backoff retries
        # and no breaker on the rate store.
        rate_store_policy = PolicySpec(
            timeout=0.3, max_retries=8, retry_backoff_base=0.002, retry_backoff_factor=1.0
        )
        # The planted missing timeouts: unbounded patience on the
        # reservation and profile stores.
        reservation_store_policy = PolicySpec.naive()
        profile_store_policy = PolicySpec.naive()

    app = Application("hotelreservation")
    app.add_service(
        ServiceDefinition(
            "frontend",
            handler=_frontend_handler,
            dependencies={
                "auth": edge(1.0),
                "search": edge(2.0),
                "profile": edge(1.5),
                "reservation": edge(2.0),
                "recommendation": edge(0.5),
                "review": edge(0.5),
                "attractions": edge(0.3),
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "search",
            handler=fanout_handler(["geo", "rate"], partial_ok=False),
            dependencies={"geo": edge(0.8), "rate": edge(1.0)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "geo",
            handler=store_handler(
                "geo-store",
                "GET",
                "/geo/nearby",
                ok="hotels ok",
                unavailable="geo index unavailable",
                degraded="geo index degraded",
            ),
            dependencies={"geo-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "rate",
            handler=store_handler(
                "rate-store",
                "GET",
                "/rate/plans/all",
                ok="rates ok",
                unavailable="rate backend unavailable",
                degraded="rate backend degraded",
                cache=("rate-cache", "/rate/plans"),
            ),
            dependencies={
                "rate-cache": edge(0.2),
                "rate-store": rate_store_policy,  # <-- planted: retry storm
            },
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "profile",
            handler=store_handler(
                "profile-store",
                "GET",
                "/profile/docs/all",
                ok="profiles ok",
                unavailable="profile backend unavailable",
                degraded="profile backend degraded",
                cache=("profile-cache", "/profile/docs"),
            ),
            dependencies={
                "profile-cache": edge(0.2),
                "profile-store": profile_store_policy,  # <-- planted: no naive timeout
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "recommendation",
            handler=store_handler(
                "recommendation-store",
                "GET",
                "/recommend/top",
                ok="recommendations ok",
                unavailable="recommendations unavailable",
                degraded="recommendations degraded",
            ),
            dependencies={"recommendation-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "auth",
            handler=credential_handler(
                "auth-store", "/auth/creds", "auth", validate_status=hardened
            ),
            dependencies={"auth-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "reservation",
            handler=store_handler(
                "reservation-store",
                "POST",
                "/reservation/book",
                ok="reservation ok",
                unavailable="reservation backend unavailable",
                degraded="reservation backend degraded",
                cache=("reservation-cache", "/reservation/avail"),
            ),
            dependencies={
                "reservation-cache": edge(0.2),
                "reservation-store": reservation_store_policy,  # <-- planted: no timeout
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "review",
            handler=store_handler(
                "review-store",
                "GET",
                "/review/recent",
                ok="reviews ok",
                unavailable="reviews unavailable",
                degraded="reviews degraded",
            ),
            dependencies={"review-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(ServiceDefinition("attractions", service_time=0.02))
    for cache in ("rate-cache", "profile-cache", "reservation-cache"):
        app.add_service(
            ServiceDefinition(cache, handler=cache_handler, service_time=0.0005)
        )
    for store, service_time in (
        ("rate-store", 0.004),
        ("geo-store", 0.003),
        ("profile-store", 0.004),
        ("recommendation-store", 0.003),
        ("auth-store", 0.003),
        ("reservation-store", 0.005),
        ("review-store", 0.003),
    ):
        app.add_service(ServiceDefinition(store, service_time=service_time))
    return app

"""A simulated DeathStarBench-class social network (28 services).

Production-scale benchmark topology modelled on the socialNetwork
application of the DeathStarBench suite: an nginx-style frontend fans
out into a compose-post write path (unique-id, text enrichment with
URL shortening and user mentions, media upload, credential check,
post storage, home-timeline fan-out, notification) and two read paths
(home timeline and user timeline), each backed by memcached-style
caches and mongodb-style datastores.

Caches are stateful leaf services: the first read of a key misses
(404) and populates, subsequent reads hit (200) — so request 1 traces
the cold path through the stores and later requests the warm path,
giving the trace-shape coverage signal real variety.  Datastores that
hold authoritative state (credentials, posts, the social graph, media
objects) are consulted on every request regardless of cache state.

``build_socialnetwork_app(hardened=True)`` builds the hardened
deployment: timeouts on every dependency edge, bounded retries plus a
circuit breaker with a stale-read fallback on the post store, and
graceful degradation for decorative features (media, ranking,
notifications).  The default ``hardened=False`` build is the naive
variant with four planted weaknesses:

* ``post-storage -> post-store``: eight flat-backoff retries and no
  breaker — a retry storm amplifier (fails ``HasBoundedRetries``);
* ``social-graph -> social-graph-store``: no timeout — a gray failure
  or long stall on the store drags the whole write path (fails
  ``HasTimeouts``);
* ``media-service -> media-store``: no timeout — resource exhaustion
  (queueing then shedding) at the store stalls media uploads
  unboundedly (fails ``HasTimeouts``);
* ``user-service``: treats *any* unexpected credential-store status as
  transient and re-asks in a tight application-level loop — a
  misconfigured (renamed/404) endpoint triggers unbounded hammering
  (fails ``HasBoundedRetries``).
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

__all__ = ["SOCIALNETWORK_SERVICES", "build_socialnetwork_app"]

#: All 28 services, frontend to storage tier (documentation order).
SOCIALNETWORK_SERVICES: _t.Tuple[str, ...] = (
    "nginx",
    "compose-post",
    "home-timeline",
    "user-timeline",
    "text-service",
    "unique-id",
    "url-shorten",
    "user-mention",
    "media-service",
    "user-service",
    "social-graph",
    "post-storage",
    "write-home-timeline",
    "ranker",
    "notifier",
    "post-cache",
    "post-store",
    "user-timeline-cache",
    "user-timeline-store",
    "home-timeline-cache",
    "social-graph-cache",
    "social-graph-store",
    "user-cache",
    "user-store",
    "media-cache",
    "media-store",
    "url-cache",
    "url-store",
)


def _nginx_handler(ctx: ServiceContext, request: HttpRequest):
    """The user-facing page: compose a post, then read both timelines.

    Compose and the home timeline are mandatory; the user timeline is
    decorative and its failure only degrades the page body.
    """
    yield from ctx.work()
    try:
        compose = yield from ctx.call(
            "compose-post", HttpRequest("POST", "/wrk2-api/post/compose"), parent=request
        )
    except ABSORBED:
        return HttpResponse(503, body=b"compose unavailable")
    if compose.status >= 500:
        return HttpResponse(502, body=b"compose degraded")
    try:
        home = yield from ctx.call(
            "home-timeline", HttpRequest("GET", "/wrk2-api/home-timeline/read"), parent=request
        )
    except ABSORBED:
        return HttpResponse(503, body=b"home timeline unavailable")
    if home.status >= 500:
        return HttpResponse(502, body=b"home timeline degraded")
    body = b"feed ok"
    try:
        user_tl = yield from ctx.call(
            "user-timeline", HttpRequest("GET", "/wrk2-api/user-timeline/read"), parent=request
        )
        if user_tl.status >= 500:
            body = b"feed degraded: user-timeline"
    except ABSORBED:
        body = b"feed degraded: user-timeline"
    return HttpResponse(200, body=body)


def _compose_handler(ctx: ServiceContext, request: HttpRequest):
    """The write path: id + text + credentials, then store and fan out."""
    yield from ctx.work()
    for mandatory in ("unique-id", "text-service", "user-service"):
        try:
            reply = yield from ctx.call(
                mandatory, HttpRequest("GET", f"/internal/{mandatory}"), parent=request
            )
        except ABSORBED:
            return HttpResponse(500, body=f"dependency failure: {mandatory}".encode())
        if reply.status >= 500:
            return HttpResponse(500, body=f"dependency failure: {mandatory}".encode())
    media_note = b""
    try:
        media = yield from ctx.call(
            "media-service", HttpRequest("POST", "/internal/media"), parent=request
        )
        if media.status >= 500:
            media_note = b" (media degraded)"
    except ABSORBED:
        media_note = b" (media degraded)"
    for write in ("post-storage", "write-home-timeline"):
        try:
            reply = yield from ctx.call(
                write, HttpRequest("POST", f"/internal/{write}"), parent=request
            )
        except ABSORBED:
            return HttpResponse(500, body=f"dependency failure: {write}".encode())
        if reply.status >= 500:
            return HttpResponse(500, body=f"dependency failure: {write}".encode())
    try:
        yield from ctx.call("notifier", HttpRequest("POST", "/internal/notify"), parent=request)
    except ABSORBED:
        pass  # notifications are fire-and-forget
    return HttpResponse(200, body=b"post composed" + media_note)


def _cache_aside_handler(cache: str, store: str, label: str):
    """Read path with classic cache-aside: hit short-circuits the store."""

    def handler(ctx: ServiceContext, request: HttpRequest):
        yield from ctx.work()
        try:
            cached = yield from ctx.call(
                cache, HttpRequest("GET", f"/{label}/lookup"), parent=request
            )
            if cached.status == 200:
                return HttpResponse(200, body=f"{label} ok (cache)".encode())
        except ABSORBED:
            pass
        try:
            reply = yield from ctx.call(
                store, HttpRequest("GET", f"/{label}/fetch"), parent=request
            )
        except ABSORBED:
            return HttpResponse(503, body=f"{label} backend unavailable".encode())
        if reply.status >= 500:
            return HttpResponse(503, body=f"{label} backend degraded".encode())
        return HttpResponse(200, body=f"{label} ok".encode())

    return handler


def _social_graph_handler(ctx: ServiceContext, request: HttpRequest):
    """Follower lookup: cache probe, then the authoritative edge list."""
    yield from ctx.work()
    try:
        cached = yield from ctx.call(
            "social-graph-cache", HttpRequest("GET", "/graph/followers"), parent=request
        )
    except ABSORBED:
        cached = None
    try:
        reply = yield from ctx.call(
            "social-graph-store", HttpRequest("GET", "/graph/followers/all"), parent=request
        )
    except ABSORBED:
        if cached is not None and cached.status == 200:
            return HttpResponse(200, body=b"followers ok (cache)")
        return HttpResponse(503, body=b"graph backend unavailable")
    if reply.status >= 500:
        return HttpResponse(503, body=b"graph backend degraded")
    return HttpResponse(200, body=b"followers ok")


def _write_home_timeline_handler(ctx: ServiceContext, request: HttpRequest):
    """Fan the new post out to followers' home timelines."""
    yield from ctx.work()
    try:
        followers = yield from ctx.call(
            "social-graph", HttpRequest("GET", "/graph/followers"), parent=request
        )
    except ABSORBED:
        return HttpResponse(503, body=b"fanout failed: social-graph")
    if followers.status >= 500:
        return HttpResponse(503, body=b"fanout degraded: social-graph")
    try:
        yield from ctx.call(
            "home-timeline-cache", HttpRequest("POST", "/timeline/home/push"), parent=request
        )
    except ABSORBED:
        pass  # cache push is best-effort; readers fall back to stores
    return HttpResponse(200, body=b"fanout ok")


def _home_timeline_handler(ctx: ServiceContext, request: HttpRequest):
    """Home timeline read: cache probe, post hydration, ranking."""
    yield from ctx.work()
    try:
        yield from ctx.call(
            "home-timeline-cache", HttpRequest("GET", "/timeline/home"), parent=request
        )
    except ABSORBED:
        pass
    try:
        posts = yield from ctx.call(
            "post-storage", HttpRequest("GET", "/post/batch"), parent=request
        )
    except ABSORBED:
        return HttpResponse(503, body=b"timeline backend unavailable")
    if posts.status >= 500:
        return HttpResponse(503, body=b"timeline backend degraded")
    body = b"home timeline ok"
    try:
        ranked = yield from ctx.call("ranker", HttpRequest("GET", "/rank"), parent=request)
        if ranked.status >= 500:
            body = b"home timeline unranked"
    except ABSORBED:
        body = b"home timeline unranked"
    return HttpResponse(200, body=body)


def _user_timeline_handler(ctx: ServiceContext, request: HttpRequest):
    """User timeline read: cache hit short-circuits, else index + posts."""
    yield from ctx.work()
    try:
        cached = yield from ctx.call(
            "user-timeline-cache", HttpRequest("GET", "/timeline/user"), parent=request
        )
        if cached.status == 200:
            return HttpResponse(200, body=b"user timeline ok (cache)")
    except ABSORBED:
        pass
    for backend in ("user-timeline-store", "post-storage"):
        try:
            reply = yield from ctx.call(
                backend, HttpRequest("GET", f"/timeline/user/{backend}"), parent=request
            )
        except ABSORBED:
            return HttpResponse(503, body=b"user timeline unavailable")
        if reply.status >= 500:
            return HttpResponse(503, body=b"user timeline degraded")
    return HttpResponse(200, body=b"user timeline ok")


def build_socialnetwork_app(hardened: bool = False) -> Application:
    """The 28-service social network; ``hardened`` picks the policies."""

    def edge(timeout: float, **kwargs) -> PolicySpec:
        return PolicySpec(timeout=timeout, **kwargs) if hardened else PolicySpec.naive()

    if hardened:
        post_store_policy = PolicySpec(
            timeout=0.3,
            max_retries=1,
            breaker_failure_threshold=5,
            breaker_recovery_timeout=10.0,
            fallback=lambda request: HttpResponse(200, body=b"post ok (stale read)"),
        )
        graph_store_policy = PolicySpec(
            timeout=0.25,
            fallback=lambda request: HttpResponse(200, body=b"followers ok (stale)"),
        )
        media_store_policy = PolicySpec(
            timeout=0.3,
            fallback=lambda request: HttpResponse(200, body=b"media placeholder"),
        )
    else:
        # The planted retry storm: eight flat near-zero-backoff retries
        # and no breaker on the post store.
        post_store_policy = PolicySpec(
            timeout=0.3, max_retries=8, retry_backoff_base=0.002, retry_backoff_factor=1.0
        )
        # The planted missing timeouts: unbounded patience on the graph
        # and media stores.
        graph_store_policy = PolicySpec.naive()
        media_store_policy = PolicySpec.naive()

    app = Application("socialnetwork")
    app.add_service(
        ServiceDefinition(
            "nginx",
            handler=_nginx_handler,
            dependencies={
                "compose-post": edge(4.0),
                "home-timeline": edge(2.0),
                "user-timeline": edge(1.0),
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "compose-post",
            handler=_compose_handler,
            dependencies={
                "unique-id": edge(0.3),
                "text-service": edge(1.0),
                "user-service": edge(1.0),
                "media-service": edge(0.8),
                "post-storage": edge(1.0),
                "write-home-timeline": edge(1.5),
                "notifier": edge(0.2),
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "home-timeline",
            handler=_home_timeline_handler,
            dependencies={
                "home-timeline-cache": edge(0.2),
                "post-storage": edge(1.0),
                "ranker": edge(0.3),
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "user-timeline",
            handler=_user_timeline_handler,
            dependencies={
                "user-timeline-cache": edge(0.2),
                "user-timeline-store": edge(0.5),
                "post-storage": edge(1.0),
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "text-service",
            handler=fanout_handler(["url-shorten", "user-mention"], partial_ok=False),
            dependencies={"url-shorten": edge(0.8), "user-mention": edge(0.8)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "url-shorten",
            handler=_cache_aside_handler("url-cache", "url-store", "url"),
            dependencies={"url-cache": edge(0.2), "url-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "user-mention",
            handler=_cache_aside_handler("user-cache", "user-store", "mention"),
            dependencies={"user-cache": edge(0.2), "user-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "media-service",
            handler=store_handler(
                "media-store",
                "POST",
                "/media/object",
                ok="media ok",
                unavailable="media backend unavailable",
                degraded="media backend degraded",
                cache=("media-cache", "/media/meta"),
            ),
            dependencies={
                "media-cache": edge(0.2),
                "media-store": media_store_policy,  # <-- planted: no naive timeout
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "user-service",
            handler=credential_handler(
                "user-store",
                "/user/creds",
                "user",
                validate_status=hardened,
                cache=("user-cache", "/user/profile"),
            ),
            dependencies={"user-cache": edge(0.2), "user-store": edge(0.5)},
            service_time=0.001,
        )
    )
    app.add_service(
        ServiceDefinition(
            "social-graph",
            handler=_social_graph_handler,
            dependencies={
                "social-graph-cache": edge(0.2),
                "social-graph-store": graph_store_policy,  # <-- planted: no naive timeout
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "post-storage",
            handler=store_handler(
                "post-store",
                "POST",
                "/post/object",
                ok="post ok",
                unavailable="post backend unavailable",
                degraded="post backend degraded",
                cache=("post-cache", "/post/recent"),
            ),
            dependencies={
                "post-cache": edge(0.2),
                "post-store": post_store_policy,  # <-- planted: retry storm
            },
            service_time=0.002,
        )
    )
    app.add_service(
        ServiceDefinition(
            "write-home-timeline",
            handler=_write_home_timeline_handler,
            dependencies={
                "social-graph": edge(1.0),
                "home-timeline-cache": edge(0.2),
            },
            service_time=0.002,
        )
    )
    app.add_service(ServiceDefinition("unique-id", service_time=0.0005))
    app.add_service(ServiceDefinition("ranker", service_time=0.004))
    app.add_service(ServiceDefinition("notifier", service_time=0.001))
    for cache in (
        "post-cache",
        "user-timeline-cache",
        "home-timeline-cache",
        "social-graph-cache",
        "user-cache",
        "media-cache",
        "url-cache",
    ):
        app.add_service(
            ServiceDefinition(cache, handler=cache_handler, service_time=0.0005)
        )
    for store, service_time in (
        ("post-store", 0.005),
        ("user-timeline-store", 0.004),
        ("social-graph-store", 0.004),
        ("user-store", 0.003),
        ("media-store", 0.005),
        ("url-store", 0.003),
    ):
        app.add_service(ServiceDefinition(store, service_time=service_time))
    return app

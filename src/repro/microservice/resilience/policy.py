"""The per-dependency resilience policy (paper Section 2.1).

A :class:`PolicySpec` declares which of the four patterns a caller's
client to one dependency adopts — any subset may be present, and the
*absence* of each one is a bug class Gremlin's pattern checks are
designed to expose:

* no timeout      -> Fig 5's delay-offset response times
* no bounded retry-> unbounded hammering of a degraded callee
* no breaker      -> Fig 6's fully-delayed request train, cascading load
* no bulkhead     -> caller resource exhaustion from one slow callee

The spec is the one declaration of a policy:
:class:`~repro.microservice.clients.DependencyClient` runs it directly
(per-attempt deadline, attempt loop with exponential backoff, bulkhead
semaphore, its own :class:`CircuitBreaker`).

``fallback`` is the "cached (or default) response" of the breaker
description: a callable producing an :class:`HttpResponse` when the
dependency is unavailable (breaker open, bulkhead full, or attempts
exhausted).  Without a fallback those conditions surface as exceptions
to the service handler.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.http.message import HttpRequest, HttpResponse

__all__ = ["PolicySpec"]

#: A fallback takes the failed request and returns a substitute response.
Fallback = _t.Callable[[HttpRequest], HttpResponse]


@dataclasses.dataclass
class PolicySpec:
    """Declarative description of a policy, used in service definitions.

    Service definitions are built before the simulator exists, so the
    spec holds plain parameters, checked when it is declared.  A spec
    with every field ``None`` describes the *naive* client the case
    studies (ElasticPress, pre-fix Unirest users) exhibit.

    ``timeout`` bounds each *attempt* (a retry restarts the budget, as
    in requests, Finagle and Hystrix).  ``max_retries`` counts attempts
    after the first; retry ``i`` (0-based) sleeps
    ``retry_backoff_base * retry_backoff_factor ** i`` virtual seconds
    first, clamped to :data:`~repro.microservice.clients.MAX_BACKOFF`.
    """

    timeout: _t.Optional[float] = None
    max_retries: _t.Optional[int] = None
    retry_backoff_base: float = 0.010
    retry_backoff_factor: float = 2.0
    breaker_failure_threshold: _t.Optional[int] = None
    breaker_recovery_timeout: float = 30.0
    breaker_success_threshold: int = 1
    bulkhead_max_concurrent: _t.Optional[int] = None
    fallback: _t.Optional[Fallback] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_base < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.retry_backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.retry_backoff_factor}")
        if self.bulkhead_max_concurrent is not None and self.bulkhead_max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.bulkhead_max_concurrent}"
            )

    @classmethod
    def naive(cls) -> "PolicySpec":
        """No patterns at all — the anti-pattern under test in Fig 5/6."""
        return cls()

    @classmethod
    def hardened(
        cls,
        timeout: float = 1.0,
        max_retries: int = 3,
        breaker_failure_threshold: int = 5,
        breaker_recovery_timeout: float = 30.0,
        bulkhead_max_concurrent: int = 10,
        fallback: _t.Optional[Fallback] = None,
    ) -> "PolicySpec":
        """All four patterns enabled with sane defaults."""
        return cls(
            timeout=timeout,
            max_retries=max_retries,
            breaker_failure_threshold=breaker_failure_threshold,
            breaker_recovery_timeout=breaker_recovery_timeout,
            bulkhead_max_concurrent=bulkhead_max_concurrent,
            fallback=fallback,
        )

    def describe(self) -> str:
        """Compact human-readable summary of enabled patterns."""
        parts = []
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}")
        if self.max_retries is not None:
            parts.append(f"retries={self.max_retries}")
        if self.breaker_failure_threshold is not None:
            parts.append(f"breaker={self.breaker_failure_threshold}")
        if self.bulkhead_max_concurrent is not None:
            parts.append(f"bulkhead={self.bulkhead_max_concurrent}")
        if self.fallback is not None:
            parts.append("fallback")
        return "+".join(parts) if parts else "naive"

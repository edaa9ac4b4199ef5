"""Per-dependency clients applying the resilience policy.

A :class:`DependencyClient` is what a microservice's code path to one
downstream service looks like: it sends HTTP requests (through the
sidecar agent when one is deployed) and wraps them in whatever subset
of the resilience patterns the service adopted.  The control flow per
logical call::

    fallback/raise <- breaker open?
    fallback/raise <- bulkhead full?
    loop attempts:
        per-attempt timeout -> HTTP call
        success (status < 500)  -> breaker.record_success, return
        failure (5xx / network / timeout / codec):
            breaker.record_failure
            retries left? backoff, continue
            else: fallback, or return the error response,
                  or re-raise the transport error

Failure classification follows the paper's fault model: 5xx statuses,
connection errors, resets, timeouts, and unparseable responses all
count as failures; 4xx statuses are the caller's own fault and are
returned as-is without burning retries.
"""

from __future__ import annotations

import typing as _t

from repro.errors import (
    BulkheadFullError,
    CircuitOpenError,
    CodecError,
    NetworkError,
    RequestTimeoutError,
)
from repro.http.client import HttpClient
from repro.http.message import HttpRequest, HttpResponse
from repro.microservice.resilience.circuit_breaker import BreakerState
from repro.microservice.resilience.policy import ResiliencePolicy
from repro.network.address import Address
from repro.simulation.kernel import Simulator

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import Counter, Gauge, MetricsRegistry

__all__ = ["DependencyClient", "CallStats"]

#: Gauge encoding of breaker state: merge-by-max reads as "worst
#: observed state" across workers and replicas.
_BREAKER_STATE_CODE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}

#: Exceptions classified as call failures (retryable, breaker-counted).
FAILURE_EXCEPTIONS = (NetworkError, RequestTimeoutError, CodecError)


class CallStats:
    """Counters a client keeps about its own behaviour, for tests."""

    def __init__(self) -> None:
        self.calls = 0
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.breaker_rejections = 0
        self.bulkhead_rejections = 0
        self.fallbacks = 0

    def __repr__(self) -> str:
        return (
            f"<CallStats calls={self.calls} attempts={self.attempts}"
            f" successes={self.successes} failures={self.failures}"
            f" retries={self.retries} fallbacks={self.fallbacks}>"
        )


class DependencyClient:
    """The policy-wrapped path from one caller instance to one callee."""

    def __init__(
        self,
        sim: Simulator,
        http: HttpClient,
        caller: str,
        dependency: str,
        target: _t.Union[Address, _t.Callable[[], Address]],
        policy: ResiliencePolicy,
        metrics: "_t.Optional[MetricsRegistry]" = None,
    ) -> None:
        self.sim = sim
        self.http = http
        self.caller = caller
        self.dependency = dependency
        #: Either a fixed address (the sidecar's loopback port, the
        #: normal case) or a resolver callable for sidecar-less
        #: deployments, where the client itself picks an instance.
        self.target = target
        self.policy = policy
        self.stats = CallStats()
        self._rng = sim.rng(f"client/{caller}->{dependency}")
        self._retries_total: "_t.Optional[Counter]" = None
        self._breaker_rejections_total: "_t.Optional[Counter]" = None
        self._breaker_gauge: "_t.Optional[Gauge]" = None
        if metrics is not None:
            self._retries_total = metrics.counter(
                "client_retries_total", src=caller, dst=dependency
            )
            self._breaker_rejections_total = metrics.counter(
                "client_breaker_rejections_total", src=caller, dst=dependency
            )
            if policy.breaker is not None:
                self._breaker_gauge = metrics.gauge(
                    "client_breaker_state", src=caller, dst=dependency
                )

    def _resolve_target(self) -> Address:
        if callable(self.target):
            return self.target()
        return self.target

    def call(
        self, request: HttpRequest
    ) -> _t.Generator[_t.Any, _t.Any, HttpResponse]:
        """One logical call with the full policy applied (subroutine).

        Returns the downstream response — including downstream *error*
        responses once retries are exhausted, since a real client hands
        the final 503 to the application.  Raises transport-level
        exceptions only when there is no HTTP response and no fallback
        to substitute (:class:`CircuitOpenError`,
        :class:`BulkheadFullError`, or the last network error).
        """
        policy = self.policy
        self.stats.calls += 1

        if policy.breaker is not None and not policy.breaker.allow_request():
            self.stats.breaker_rejections += 1
            self._count_breaker_rejection()
            fallback = self._try_fallback(request)
            if fallback is not None:
                return fallback
            raise CircuitOpenError(
                f"{self.caller} -> {self.dependency}: circuit breaker open"
            )

        if policy.bulkhead is not None:
            try:
                policy.bulkhead.acquire()
            except BulkheadFullError:
                self.stats.bulkhead_rejections += 1
                fallback = self._try_fallback(request)
                if fallback is not None:
                    return fallback
                raise

        try:
            response = yield from self._attempt_loop(request)
        finally:
            if policy.bulkhead is not None:
                policy.bulkhead.release()
        return response

    # -- internals ------------------------------------------------------------

    def _attempt_loop(
        self, request: HttpRequest
    ) -> _t.Generator[_t.Any, _t.Any, HttpResponse]:
        policy = self.policy
        last_error: Exception | None = None
        last_response: HttpResponse | None = None

        try:
            for attempt in range(policy.max_attempts):
                if attempt > 0:
                    # The breaker gates *every* attempt: if the failures of
                    # this very call tripped it, remaining retries must not
                    # reach the wire (Hystrix semantics — and what the
                    # HasCircuitBreaker check observes as silence).
                    if policy.breaker is not None and not policy.breaker.allow_request():
                        self.stats.breaker_rejections += 1
                        self._count_breaker_rejection()
                        break
                    self.stats.retries += 1
                    if self._retries_total is not None:
                        self._retries_total.inc()
                    assert policy.retry is not None
                    backoff = policy.retry.backoff(attempt - 1, rng=self._rng)
                    if backoff > 0:
                        yield self.sim.timeout(backoff)
                self.stats.attempts += 1
                try:
                    # One object serves every attempt: what goes on the wire
                    # is a snapshot, so no hop can touch ``request``.
                    response = yield from self.http.call(
                        self._resolve_target(), request, timeout=policy.attempt_timeout
                    )
                except FAILURE_EXCEPTIONS as exc:
                    last_error, last_response = exc, None
                    self._record_failure()
                    continue
                if response.status >= 500:
                    last_error, last_response = None, response
                    self._record_failure()
                    continue
                # 2xx/3xx/4xx: the call reached the service and came back;
                # 4xx is the caller's problem, not an availability failure.
                self.stats.successes += 1
                if policy.breaker is not None:
                    policy.breaker.record_success()
                    self._update_breaker_gauge()
                return response

            # All attempts failed.
            fallback = self._try_fallback(request)
            if fallback is not None:
                return fallback
            if last_response is not None:
                return last_response
            assert last_error is not None
            raise last_error
        finally:
            # The error travelled through this frame, so its traceback
            # holds the frame: holding the error back would leave every
            # failed call (frames, connection, request) to the cycle
            # collector.
            last_error = None

    def _record_failure(self) -> None:
        self.stats.failures += 1
        if self.policy.breaker is not None:
            self.policy.breaker.record_failure()
            self._update_breaker_gauge()

    def _count_breaker_rejection(self) -> None:
        if self._breaker_rejections_total is not None:
            self._breaker_rejections_total.inc()
        self._update_breaker_gauge()

    def _update_breaker_gauge(self) -> None:
        if self._breaker_gauge is not None:
            assert self.policy.breaker is not None
            self._breaker_gauge.set(_BREAKER_STATE_CODE[self.policy.breaker.state])

    def _try_fallback(self, request: HttpRequest) -> HttpResponse | None:
        if self.policy.fallback is None:
            return None
        self.stats.fallbacks += 1
        return self.policy.fallback(request)

    def __repr__(self) -> str:
        return (
            f"<DependencyClient {self.caller} -> {self.dependency}"
            f" via {self.target} [{self.policy.describe()}]>"
        )

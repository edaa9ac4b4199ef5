"""Unit tests for the policy-wrapped DependencyClient.

Uses a bare HTTP server (no agent in between) so the behaviours of the
resilience policies can be asserted in isolation.
"""

import pytest

from repro.errors import (
    BulkheadFullError,
    CircuitOpenError,
    ConnectionRefusedError_,
)
from repro.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.microservice import PolicySpec
from repro.microservice.clients import DependencyClient
from repro.network import Address, Network
from repro.observability.metrics import MetricsRegistry

from tests.conftest import run_to_completion, sim_on_lane as sim


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=0.001)


class FlakyServer:
    """Fails the first ``failures`` requests with 503, then succeeds."""

    def __init__(self, sim, net, failures, name="backend", service_time=0.005):
        self.remaining_failures = failures
        self.requests_seen = 0
        host = net.add_host(name)

        def handler(request):
            yield sim.timeout(service_time)
            self.requests_seen += 1
            if self.remaining_failures > 0:
                self.remaining_failures -= 1
                return HttpResponse(503, body=b"down")
            return HttpResponse(200, body=b"up")

        HttpServer(host, 8080, handler).start()
        self.address = Address(name, 8080)


def make_client(sim, net, spec, target=None, caller_host="caller"):
    host = net.add_host(caller_host)
    return DependencyClient(
        sim,
        HttpClient(host),
        caller="Caller",
        dependency="Backend",
        target=target or Address("backend", 8080),
        policy=spec.build(sim),
        metrics=MetricsRegistry(),
    )


def call(sim, client, request=None):
    return run_to_completion(sim, client.call(request or HttpRequest("GET", "/x")))


class TestRetries:
    def test_retries_until_success(self, sim, net):
        server = FlakyServer(sim, net, failures=2)
        client = make_client(sim, net, PolicySpec(max_retries=3, retry_backoff_base=0.01))
        response = call(sim, client)
        assert response.status == 200
        assert server.requests_seen == 3
        assert client.stats.retries == 2

    def test_exhausted_retries_return_last_error_response(self, sim, net):
        server = FlakyServer(sim, net, failures=100)
        client = make_client(sim, net, PolicySpec(max_retries=2, retry_backoff_base=0.01))
        response = call(sim, client)
        assert response.status == 503
        assert server.requests_seen == 3  # 1 + 2 retries, bounded

    def test_no_retry_policy_single_attempt(self, sim, net):
        server = FlakyServer(sim, net, failures=1)
        client = make_client(sim, net, PolicySpec())
        response = call(sim, client)
        assert response.status == 503
        assert server.requests_seen == 1

    def test_4xx_is_not_retried(self, sim, net):
        host = net.add_host("backend")

        def handler(request):
            yield sim.timeout(0.001)
            return HttpResponse(404)

        server = HttpServer(host, 8080, handler).start()
        client = make_client(sim, net, PolicySpec(max_retries=5, retry_backoff_base=0.01))
        response = call(sim, client)
        assert response.status == 404
        assert server.requests_served == 1

    def test_backoff_spacing_is_exponential(self, sim, net):
        FlakyServer(sim, net, failures=100, service_time=0.0)
        client = make_client(
            sim, net, PolicySpec(max_retries=3, retry_backoff_base=0.1, retry_backoff_factor=2.0)
        )
        call(sim, client)
        # 4 attempts; backoffs 0.1 + 0.2 + 0.4 = 0.7 plus small RTTs.
        assert sim.now == pytest.approx(0.7, abs=0.05)

    def test_network_error_retried_then_raised(self, sim, net):
        net.add_host("backend")  # nothing listening -> refused
        client = make_client(sim, net, PolicySpec(max_retries=2, retry_backoff_base=0.01))
        with pytest.raises(ConnectionRefusedError_):
            call(sim, client)
        assert client.stats.attempts == 3


class TestTimeoutPolicyIntegration:
    def test_per_attempt_timeout(self, sim, net):
        FlakyServer(sim, net, failures=0, service_time=2.0)
        client = make_client(sim, net, PolicySpec(timeout=0.1))
        from repro.errors import RequestTimeoutError

        def scenario(sim):
            try:
                yield from client.call(HttpRequest("GET", "/x"))
            except RequestTimeoutError:
                return sim.now

        # The caller gave up at 0.1s even though the server kept going.
        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.1, abs=0.01)

    def test_timeout_restarts_per_retry(self, sim, net):
        FlakyServer(sim, net, failures=0, service_time=2.0)
        client = make_client(
            sim, net, PolicySpec(timeout=0.1, max_retries=1, retry_backoff_base=0.0)
        )
        from repro.errors import RequestTimeoutError

        def scenario(sim):
            try:
                yield from client.call(HttpRequest("GET", "/x"))
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, scenario(sim)) == pytest.approx(0.2, abs=0.02)


class TestBreakerIntegration:
    def test_breaker_opens_and_rejects_locally(self, sim, net):
        server = FlakyServer(sim, net, failures=100, service_time=0.001)
        client = make_client(
            sim,
            net,
            PolicySpec(breaker_failure_threshold=3, breaker_recovery_timeout=60.0),
        )
        for _ in range(3):
            response = call(sim, client)
            assert response.status == 503
        with pytest.raises(CircuitOpenError):
            call(sim, client)
        # The open breaker kept the wire silent.
        assert server.requests_seen == 3
        assert client.stats.breaker_rejections == 1

    def test_breaker_open_uses_fallback(self, sim, net):
        server = FlakyServer(sim, net, failures=100, service_time=0.001)
        fallback = lambda request: HttpResponse(200, body=b"cached")  # noqa: E731
        client = make_client(
            sim,
            net,
            PolicySpec(
                breaker_failure_threshold=2,
                breaker_recovery_timeout=60.0,
                fallback=fallback,
            ),
        )
        # Exhausted attempts also fall back, so every call returns the
        # cached body; the third never reaches the wire (breaker open).
        for _ in range(3):
            response = call(sim, client)
            assert response.body == b"cached"
        assert client.stats.fallbacks == 3
        assert client.stats.breaker_rejections == 1
        assert server.requests_seen == 2

    def test_breaker_recovers_after_window(self, sim, net):
        server = FlakyServer(sim, net, failures=2, service_time=0.001)
        client = make_client(
            sim,
            net,
            PolicySpec(breaker_failure_threshold=2, breaker_recovery_timeout=5.0),
        )
        call(sim, client)
        call(sim, client)  # breaker now open; server healthy again
        with pytest.raises(CircuitOpenError):
            call(sim, client)
        sim.run(until=sim.now + 5.0)
        response = call(sim, client)  # half-open probe succeeds
        assert response.status == 200
        response = call(sim, client)  # breaker closed again
        assert response.status == 200
        assert server.requests_seen == 4


class TestBulkheadIntegration:
    def test_bulkhead_rejects_excess_concurrency(self, sim, net):
        FlakyServer(sim, net, failures=0, service_time=1.0)
        client = make_client(sim, net, PolicySpec(bulkhead_max_concurrent=2))
        outcomes = []

        def one_call(sim):
            try:
                response = yield from client.call(HttpRequest("GET", "/x"))
                outcomes.append(response.status)
            except BulkheadFullError:
                outcomes.append("rejected")

        for _ in range(4):
            sim.process(one_call(sim))
        sim.run()
        assert outcomes.count("rejected") == 2
        assert outcomes.count(200) == 2

    def test_bulkhead_full_uses_fallback(self, sim, net):
        FlakyServer(sim, net, failures=0, service_time=1.0)
        fallback = lambda request: HttpResponse(200, body=b"degraded")  # noqa: E731
        client = make_client(
            sim, net, PolicySpec(bulkhead_max_concurrent=1, fallback=fallback)
        )
        bodies = []

        def one_call(sim):
            response = yield from client.call(HttpRequest("GET", "/x"))
            bodies.append(response.body)

        sim.process(one_call(sim))
        sim.process(one_call(sim))
        sim.run()
        assert sorted(bodies) == [b"degraded", b"up"]

    def test_bulkhead_slot_released_after_failure(self, sim, net):
        net.add_host("backend")  # refused connections
        client = make_client(sim, net, PolicySpec(bulkhead_max_concurrent=1))
        for _ in range(3):
            with pytest.raises(ConnectionRefusedError_):
                call(sim, client)
        assert client.policy.bulkhead.in_use == 0


class TestStats:
    def test_stats_accumulate(self, sim, net):
        FlakyServer(sim, net, failures=1, service_time=0.001)
        client = make_client(sim, net, PolicySpec(max_retries=2, retry_backoff_base=0.001))
        call(sim, client)
        assert client.stats.calls == 1
        assert client.stats.attempts == 2
        assert client.stats.successes == 1
        assert client.stats.failures == 1

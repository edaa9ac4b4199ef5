"""Unit tests for the four resilience patterns: the declared
:class:`PolicySpec` and the :class:`DependencyClient` that runs it."""

import dataclasses

import pytest

from repro.errors import BulkheadFullError, RequestTimeoutError
from repro.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.microservice import BreakerState, CircuitBreaker, PolicySpec
from repro.microservice.clients import MAX_BACKOFF, DependencyClient
from repro.network import Address, Network
from repro.observability.metrics import MetricsRegistry

from tests.conftest import run_to_completion

LATENCY = 0.001


@pytest.fixture
def net(sim):
    return Network(sim, default_latency=LATENCY)


class Backend:
    """Answers every request with ``status`` after ``service_time``,
    noting when each attempt arrived."""

    def __init__(self, sim, net, status=503, service_time=0.0):
        self.arrivals = []

        def handler(request):
            self.arrivals.append(sim.now)
            if service_time:
                yield sim.timeout(service_time)
            return HttpResponse(status, body=b"up" if status < 500 else b"down")

        HttpServer(net.add_host("backend"), 8080, handler).start()

    def sleeps(self):
        """The backoff slept before each retry: the gap between two
        arrivals less one attempt's round trip, which is the first
        arrival plus the reply's link latency (zero service time)."""
        round_trip = self.arrivals[0] + LATENCY
        pairs = zip(self.arrivals, self.arrivals[1:])
        return [later - earlier - round_trip for earlier, later in pairs]


def make_client(sim, net, spec):
    return DependencyClient(
        sim,
        HttpClient(net.add_host("caller")),
        caller="Caller",
        dependency="Backend",
        target=Address("backend", 8080),
        policy=spec,
        metrics=MetricsRegistry(),
    )


def call(sim, client):
    return run_to_completion(sim, client.call(HttpRequest("GET", "/x")))


class TestTimeoutPolicy:
    def test_holds_value(self, sim, net):
        Backend(sim, net, status=200, service_time=5.0)
        client = make_client(sim, net, PolicySpec(timeout=1.5))

        def gave_up_at():
            try:
                yield from client.call(HttpRequest("GET", "/x"))
            except RequestTimeoutError:
                return sim.now

        assert run_to_completion(sim, gave_up_at()) == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match=f"^timeout must be > 0, got {bad}$"):
            PolicySpec(timeout=bad)


class TestRetryPolicy:
    def test_attempt_accounting(self, sim, net):
        backend = Backend(sim, net)
        client = make_client(sim, net, PolicySpec(max_retries=5))
        assert call(sim, client).status == 503
        assert len(backend.arrivals) == 6
        assert client.stats.attempts == 6

    def test_exponential_backoff(self, sim, net):
        backend = Backend(sim, net)
        spec = PolicySpec(max_retries=3, retry_backoff_base=0.1, retry_backoff_factor=2.0)
        call(sim, make_client(sim, net, spec))
        assert backend.sleeps() == pytest.approx([0.1, 0.2, 0.4])

    def test_flat_backoff(self, sim, net):
        backend = Backend(sim, net)
        spec = PolicySpec(max_retries=3, retry_backoff_base=0.05, retry_backoff_factor=1.0)
        call(sim, make_client(sim, net, spec))
        assert backend.sleeps() == pytest.approx([0.05, 0.05, 0.05])

    def test_backoff_clamped(self, sim, net):
        backend = Backend(sim, net)
        spec = PolicySpec(max_retries=4, retry_backoff_base=1.0, retry_backoff_factor=10.0)
        call(sim, make_client(sim, net, spec))
        assert MAX_BACKOFF == 10.0
        assert backend.sleeps() == pytest.approx([1.0, 10.0, 10.0, 10.0])

    def test_zero_retries_allowed(self, sim, net):
        backend = Backend(sim, net)
        client = make_client(sim, net, PolicySpec(max_retries=0))
        call(sim, client)
        assert len(backend.arrivals) == 1
        assert client.stats.retries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(retry_backoff_base=-1),
            dict(retry_backoff_factor=0.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PolicySpec(**kwargs)


class TestCircuitBreaker:
    def test_starts_closed(self, sim):
        assert CircuitBreaker(sim).state == BreakerState.CLOSED

    def test_trips_after_threshold(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow_request()

    def test_success_resets_consecutive_count(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_after_recovery_timeout(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout=10.0)
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        sim.run(until=10.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow_request()

    def test_half_open_limits_trial_calls(self, sim):
        breaker = CircuitBreaker(
            sim, failure_threshold=1, recovery_timeout=1.0, half_open_max_calls=1
        )
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.allow_request()
        assert not breaker.allow_request()  # trial slot taken

    def test_half_open_success_closes(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout=1.0)
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_needs_success_threshold(self, sim):
        breaker = CircuitBreaker(
            sim,
            failure_threshold=1,
            recovery_timeout=1.0,
            success_threshold=2,
            half_open_max_calls=2,
        )
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_failure_reopens(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout=1.0)
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.allow_request()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        # Timer restarted: still open shortly after.
        sim.run(until=1.5)
        assert breaker.state == BreakerState.OPEN
        sim.run(until=2.0)
        assert breaker.state == BreakerState.HALF_OPEN

    def test_transition_log(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=1, recovery_timeout=1.0)
        breaker.record_failure()
        sim.run(until=1.0)
        _ = breaker.state
        states = [state for _t, state in breaker.transitions]
        assert states == [BreakerState.OPEN, BreakerState.HALF_OPEN]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_threshold=0),
            dict(recovery_timeout=0),
            dict(success_threshold=0),
            dict(half_open_max_calls=0),
        ],
    )
    def test_validation(self, sim, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(sim, **kwargs)


class TestBulkhead:
    def test_acquire_release(self, sim, net):
        Backend(sim, net, status=200, service_time=1.0)
        client = make_client(sim, net, PolicySpec(bulkhead_max_concurrent=2))

        def call_at(delay):
            yield sim.timeout(delay)
            yield from client.call(HttpRequest("GET", "/x"))

        sim.process(call_at(0.0))
        sim.process(call_at(0.5))
        sim.run(until=0.75)
        assert client.bulkhead.in_use == 2
        sim.run(until=1.25)  # the first call is back, the second in flight
        assert client.bulkhead.available == 1
        sim.run()
        assert client.bulkhead.in_use == 0

    def test_rejects_when_full(self, sim, net):
        Backend(sim, net, status=200, service_time=1.0)
        client = make_client(sim, net, PolicySpec(bulkhead_max_concurrent=1))
        errors = []

        def one_call():
            try:
                yield from client.call(HttpRequest("GET", "/x"))
            except BulkheadFullError as exc:
                errors.append(str(exc))

        sim.process(one_call())
        sim.process(one_call())
        sim.run()
        assert errors == ["bulkhead 'Caller->Backend/bulkhead' full (1 in flight)"]
        assert client.stats.bulkhead_rejections == 1
        assert client.bulkhead.in_use == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="^max_concurrent must be >= 1, got 0$"):
            PolicySpec(bulkhead_max_concurrent=0)


class TestPolicySpec:
    def test_naive_builds_empty_policy(self, sim, net):
        client = make_client(sim, net, PolicySpec.naive())
        assert client.breaker is None
        assert client.bulkhead is None
        assert client.policy.describe() == "naive"
        assert "[naive]" in repr(client)

    def test_hardened_builds_all_patterns(self, sim, net):
        client = make_client(sim, net, PolicySpec.hardened())
        assert client.breaker.failure_threshold == 5
        assert client.breaker.recovery_timeout == 30.0
        assert client.bulkhead.capacity == 10
        assert client.policy.describe() == "timeout=1.0+retries=3+breaker=5+bulkhead=10"

    def test_partial_spec(self, sim, net):
        client = make_client(sim, net, PolicySpec(timeout=2.0, max_retries=3))
        assert client.breaker is None
        assert client.bulkhead is None
        assert client.policy.describe() == "timeout=2.0+retries=3"

    def test_fallback_carried(self, sim, net):
        Backend(sim, net)
        substitute = HttpResponse(200, body=b"cached")
        client = make_client(sim, net, PolicySpec(fallback=lambda request: substitute))
        assert call(sim, client) is substitute
        assert client.stats.fallbacks == 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(timeout=0), "timeout must be > 0, got 0"),
            (dict(max_retries=-1), "max_retries must be >= 0, got -1"),
            (dict(retry_backoff_base=-0.5), "backoff durations must be >= 0"),
            (dict(retry_backoff_factor=0.5), "backoff_factor must be >= 1, got 0.5"),
            (dict(bulkhead_max_concurrent=0), "max_concurrent must be >= 1, got 0"),
        ],
    )
    def test_refused_when_declared(self, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            PolicySpec(**kwargs)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError):
            dataclasses.replace(PolicySpec.hardened(), **kwargs)

"""End-to-end tests for the pattern checks (Table 3, bottom block).

Every check is exercised both ways: against a service that *has* the
pattern (check passes) and one that lacks it (check fails) — the
pass/fail contrast is the paper's entire value proposition.
"""

import pytest

from repro.apps import build_twotier
from repro.core import (
    Crash,
    Degrade,
    Disconnect,
    Gremlin,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
    Overload,
)
from repro.http import HttpRequest, HttpResponse
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore, ObservationRecord, Query
from repro.microservice import (
    Application,
    PolicySpec,
    ServiceDefinition,
    fanout_handler,
)


def run_load(deployment, source, n=20, think=0.01):
    load = ClosedLoopLoad(num_requests=n, think_time=think)
    load.run(source)
    return load.result


class TestHasBoundedRetries:
    def make(self, policy):
        deployment = build_twotier(policy=policy).deploy(seed=5)
        source = deployment.add_traffic_source("ServiceA")
        return deployment, source, Gremlin(deployment)

    def test_bounded_client_passes(self):
        deployment, source, gremlin = self.make(
            PolicySpec(timeout=1.0, max_retries=5, retry_backoff_base=0.02)
        )
        gremlin.inject(Disconnect("ServiceA", "ServiceB"))
        run_load(deployment, source, n=1)
        result = gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s"))
        assert result.passed, result.detail

    def test_unbounded_client_fails(self):
        deployment, source, gremlin = self.make(
            PolicySpec(timeout=1.0, max_retries=50, retry_backoff_base=0.001, retry_backoff_factor=1.0)
        )
        gremlin.inject(Disconnect("ServiceA", "ServiceB"))
        run_load(deployment, source, n=1)
        result = gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s"))
        assert not result.passed
        assert not result.inconclusive

    def test_inconclusive_without_failures(self):
        deployment, source, gremlin = self.make(PolicySpec(max_retries=2))
        run_load(deployment, source, n=3)  # no fault injected
        result = gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5))
        assert not result.passed
        assert result.inconclusive

    def test_inconclusive_without_traffic(self):
        deployment, _source, gremlin = self.make(PolicySpec(max_retries=2))
        result = gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5))
        assert result.inconclusive


class TestHasCircuitBreaker:
    def make(self, policy):
        deployment = build_twotier(policy=policy).deploy(seed=6)
        source = deployment.add_traffic_source("ServiceA")
        return deployment, source, Gremlin(deployment)

    def test_breaker_client_passes(self):
        deployment, source, gremlin = self.make(
            PolicySpec(
                timeout=1.0,
                breaker_failure_threshold=5,
                breaker_recovery_timeout=10.0,
                fallback=lambda request: HttpResponse(200, body=b"cached"),
            )
        )
        gremlin.inject(Crash("ServiceB"))
        # Drive steady load: the breaker trips after 5 failures, keeps
        # the wire silent for its 10s window, then probes again.
        run_load(deployment, source, n=60, think=0.25)
        result = gremlin.check(
            HasCircuitBreaker("ServiceA", "ServiceB", threshold=5, tdelta="9s")
        )
        assert result.passed, result.data.get("trace")

    def test_naive_client_fails(self):
        deployment, source, gremlin = self.make(PolicySpec(timeout=1.0))
        gremlin.inject(Crash("ServiceB"))
        run_load(deployment, source, n=60, think=0.25)
        result = gremlin.check(
            HasCircuitBreaker("ServiceA", "ServiceB", threshold=5, tdelta="9s")
        )
        assert not result.passed
        assert not result.inconclusive

    def test_inconclusive_without_enough_failures(self):
        deployment, source, gremlin = self.make(PolicySpec(timeout=1.0))
        run_load(deployment, source, n=3)
        result = gremlin.check(HasCircuitBreaker("ServiceA", "ServiceB", threshold=5, tdelta="5s"))
        assert result.inconclusive


class TestHasTimeouts:
    def make(self, policy):
        deployment = build_twotier(policy=policy).deploy(seed=7)
        source = deployment.add_traffic_source("ServiceA")
        return deployment, source, Gremlin(deployment)

    def test_timeout_client_passes(self):
        deployment, source, gremlin = self.make(
            PolicySpec(timeout=0.3, fallback=lambda request: HttpResponse(200, body=b"degraded"))
        )
        gremlin.inject(Degrade("ServiceB", interval="5s"))
        run_load(deployment, source, n=5)
        result = gremlin.check(HasTimeouts("ServiceA", "1s"))
        assert result.passed, result.detail

    def test_naive_client_fails(self):
        deployment, source, gremlin = self.make(PolicySpec())
        gremlin.inject(Degrade("ServiceB", interval="5s"))
        run_load(deployment, source, n=5)
        result = gremlin.check(HasTimeouts("ServiceA", "1s"))
        assert not result.passed
        assert result.data["slow"] == 5

    def test_inconclusive_without_upstream_observations(self):
        deployment = build_twotier().deploy()
        gremlin = Gremlin(deployment)
        result = gremlin.check(HasTimeouts("ServiceA", "1s"))
        assert result.inconclusive

    @pytest.mark.parametrize("window", [(None, None), (1.5, None), (1.5, 9.0)])
    def test_scopes_are_the_keyword_built_queries(self, window):
        """The scopes are built positionally; they must equal, and hash
        like, the queries named field by field, which are the reads
        ``get_requests``/``get_replies`` make."""
        since, until = window
        shared = dict(dst="ServiceB", id_pattern="test-*", since=since, until=until)
        want = [Query(kind="reply", **shared), Query(kind="request", **shared)]
        got = HasTimeouts("ServiceB", "1s", id_pattern="test-*").scopes(since, until)
        assert got == want
        assert [hash(query) for query in got] == [hash(query) for query in want]


class _RecordingStore(EventStore):
    """An EventStore that records the Query each read receives."""

    def __init__(self):
        super().__init__()
        self.read = []

    def search(self, query):
        self.read.append(query)
        return super().search(query)

    def follow(self, query, cursor=None):
        self.read.append(query)
        return super().follow(query, cursor)


def _edge_log() -> _RecordingStore:
    """A -> B: five 503s, then three 200s, each answered to A."""
    store = _RecordingStore()
    for index in range(8):
        status = 503 if index < 5 else 200
        fields = dict(src="A", dst="B", request_id=f"test-{index}", status=status)
        store.append(ObservationRecord(timestamp=float(index), kind="request", **fields))
        store.append(ObservationRecord(timestamp=index + 0.5, kind="reply", latency=0.5, **fields))
    return store


def test_scopes_are_the_queries_run_reads():
    """Each check's ``scopes()`` are exactly the queries its ``run``
    reads, with and without a kept state, and on a resumed read."""
    checks = [
        HasBoundedRetries("A", "B", max_tries=10, window="10s"),
        HasCircuitBreaker("A", "B", tdelta="1s", check_recovery=False),
        HasTimeouts("B", "1s"),
    ]
    for check in checks:
        for since, until in [(None, None), (1.5, None), (1.5, 6.0)]:
            scopes = set(check.scopes(since, until))
            for state in (None, {}):
                store = _edge_log()
                check.run(store, since, until, state)
                assert set(store.read) == scopes, (check.name, since, until)
                if state is not None:
                    store.read.clear()
                    check.run(store, since, until, state)
                    assert set(store.read) == scopes, (check.name, since, until)


class TestHasBulkhead:
    def make(self, bulkhead):
        """front calls slow + fast; optional per-dependency bulkhead."""
        slow_policy = PolicySpec(
            timeout=None if not bulkhead else 10.0,
            bulkhead_max_concurrent=2 if bulkhead else None,
            fallback=(lambda request: HttpResponse(200, body=b"shed")) if bulkhead else None,
        )
        app = Application("bulkhead-demo")

        def front_handler(ctx, request):
            yield from ctx.work()
            # Query both backends; the page tolerates a failed slow call.
            try:
                yield from ctx.call("slow", HttpRequest("GET", "/s"), parent=request)
            except Exception:  # noqa: BLE001
                pass
            reply = yield from ctx.call("fast", HttpRequest("GET", "/f"), parent=request)
            return HttpResponse(reply.status, body=b"page")

        app.add_service(
            ServiceDefinition(
                "front",
                handler=front_handler,
                dependencies={"slow": slow_policy, "fast": PolicySpec(timeout=1.0)},
                worker_pool=4,
            )
        )
        app.add_service(ServiceDefinition("slow"))
        app.add_service(ServiceDefinition("fast"))
        deployment = app.deploy(seed=8)
        source = deployment.add_traffic_source("front")
        return deployment, source, Gremlin(deployment)

    def drive_open_loop(self, deployment, source, rate=20.0, duration=5.0):
        from repro.loadgen import OpenLoopLoad

        OpenLoopLoad(rate=rate, duration=duration).run(source)

    def test_bulkhead_keeps_other_dependents_served(self):
        deployment, source, gremlin = self.make(bulkhead=True)
        gremlin.inject(Degrade("slow", interval="10s"))
        self.drive_open_loop(deployment, source)
        result = gremlin.check(HasBulkhead("front", "slow", rate=5.0))
        assert result.passed, result.detail

    def test_no_bulkhead_starves_other_dependents(self):
        deployment, source, gremlin = self.make(bulkhead=False)
        gremlin.inject(Degrade("slow", interval="10s"))
        self.drive_open_loop(deployment, source)
        result = gremlin.check(HasBulkhead("front", "slow", rate=5.0))
        assert not result.passed

    def test_inconclusive_without_other_dependents(self):
        deployment = build_twotier().deploy()
        source = deployment.add_traffic_source("ServiceA")
        gremlin = Gremlin(deployment)
        run_load(deployment, source, n=2)
        result = gremlin.check(HasBulkhead("ServiceA", "ServiceB", rate=1.0))
        assert result.inconclusive

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            HasBulkhead("a", "b", rate=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HasBoundedRetries("a", "b", max_tries=-1),
        lambda: HasBoundedRetries("a", "b", 5, num_failures=0),
        lambda: HasBoundedRetries("a", "b", 5, failure_status=None, num_failures=0),
        lambda: HasBoundedRetries("a", "b", 5, window=-1),
        lambda: HasCircuitBreaker("a", "b", threshold=0),
        lambda: HasCircuitBreaker("a", "b", half_open_allowance=-1),
        lambda: HasCircuitBreaker("a", "b", success_threshold=-1),
    ],
    ids=[
        "retries-max-tries",
        "retries-num-failures",
        "retries-num-failed-calls",
        "retries-window",
        "breaker-threshold",
        "breaker-half-open-allowance",
        "breaker-success-threshold",
    ],
)
def test_retry_and_breaker_parameters_validated(build):
    """Refused when the check is built, not at the first run that sees
    requests (an empty store would leave them inconclusive)."""
    with pytest.raises(ValueError):
        build()

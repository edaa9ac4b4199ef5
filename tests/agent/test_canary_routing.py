"""Agent-level unit tests for canary routing: one pattern, no knob."""

from repro.agent import proxy
from repro.loadgen import ClosedLoopLoad
from repro.microservice import Application, PolicySpec, ServiceDefinition, fanout_handler
from repro.tracing import RequestIdGenerator


def build(canaries=1):
    """Two-tier app with ``canaries`` canary instances of ServiceB."""
    app = Application("canary-config")
    app.add_service(
        ServiceDefinition(
            "ServiceA",
            handler=fanout_handler(["ServiceB"]),
            dependencies={"ServiceB": PolicySpec(timeout=1.0)},
        )
    )
    app.add_service(ServiceDefinition("ServiceB", canary_instances=canaries))
    deployment = app.deploy(seed=141)
    source = deployment.add_traffic_source("ServiceA")
    return deployment, source


class CountingPattern:
    """The sidecars' canary pattern, counting the IDs it is asked about."""

    def __init__(self, pattern) -> None:
        self.pattern, self.matches = pattern, 0

    def match(self, text):
        self.matches += 1
        return self.pattern.match(text)


class TestCanaryPatternConfig:
    def test_shadow_ids_land_on_canaries_and_user_ids_on_production(self):
        deployment, source = build()
        ClosedLoopLoad(num_requests=2, ids=RequestIdGenerator(prefix="shadow-")).run(source)
        ClosedLoopLoad(num_requests=3, ids=RequestIdGenerator(prefix="user-")).run(source)
        canary = deployment.canaries_of("ServiceB")[0]
        production = deployment.production_instances_of("ServiceB")[0]
        assert canary.server.requests_served == 2
        assert production.server.requests_served == 3

    def test_default_pattern_on_fresh_agent(self):
        pattern = proxy._CANARY_IDS
        assert pattern.match("test-1") and pattern.match("shadow-user-1-1")
        assert not pattern.match("user-1") and not pattern.match("contest-1")

    def test_no_pattern_match_without_a_canary_pool(self, monkeypatch):
        counting = CountingPattern(proxy._CANARY_IDS)
        monkeypatch.setattr(proxy, "_CANARY_IDS", counting)
        deployment, source = build(canaries=0)
        ClosedLoopLoad(num_requests=4).run(source)
        assert deployment.production_instances_of("ServiceB")[0].server.requests_served == 4
        assert counting.matches == 0
        # With a pool, each ID forwarded toward it is matched once.
        deployment, source = build(canaries=1)
        ClosedLoopLoad(num_requests=4).run(source)
        assert deployment.canaries_of("ServiceB")[0].server.requests_served == 4
        assert counting.matches == 4

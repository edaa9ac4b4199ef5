"""repro: a reproduction of *Gremlin: Systematic Resilience Testing of
Microservices* (Heorhiadi et al., ICDCS 2016).

The package re-implements the full Gremlin system — SDN-style control
plane (Recipe Translator, Failure Orchestrator, Assertion Checker) and
data plane (sidecar proxy agents with Abort/Delay/Modify fault
primitives) — together with every substrate it needs to run at laptop
scale: a deterministic discrete-event simulator, a network transport
and HTTP layer, a microservice runtime with the four resilience
patterns, a service registry, request tracing, a centralized event-log
store, and load generators.

Quick start::

    from repro import (
        Gremlin, Overload, HasBoundedRetries, ClosedLoopLoad, build_twotier,
    )

    deployment = build_twotier().deploy(seed=42)
    source = deployment.add_traffic_source("ServiceA")
    gremlin = Gremlin(deployment)

    gremlin.inject(Overload("ServiceB"))
    ClosedLoopLoad(num_requests=100).run(source)
    print(gremlin.check(HasBoundedRetries("ServiceA", "ServiceB", 5)))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "agent": [
            "FaultRule",
            "FaultType",
            "GremlinAgent",
            "MessageDirection",
            "TCP_RESET",
            "abort",
            "delay",
            "modify",
        ],
        "apps": [
            "build_billing_app",
            "build_coreservice_app",
            "build_database_app",
            "build_enterprise_app",
            "build_messagebus_app",
            "build_tree_app",
            "build_twotier",
            "build_wordpress_app",
        ],
        "bus": ["BrokerConfig", "broker_definition", "publish"],
        "core": [
            "AbortCalls",
            "ChaosMonkey",
            "CheckResult",
            "CheckStatus",
            "Combine",
            "Crash",
            "Degrade",
            "DelayCalls",
            "Disconnect",
            "FakeSuccess",
            "Gremlin",
            "Hang",
            "HasBoundedRetries",
            "HasBulkhead",
            "HasCircuitBreaker",
            "HasTimeouts",
            "ModifyReplies",
            "NetworkPartition",
            "Overload",
            "Recipe",
            "RecipeResult",
            "generate_recipes",
            "get_replies",
            "get_requests",
        ],
        "loadgen": ["ApacheBench", "ClosedLoopLoad", "OpenLoopLoad"],
        "microservice": [
            "Application",
            "ApplicationGraph",
            "Deployment",
            "PolicySpec",
            "ServiceDefinition",
        ],
        "simulation": ["Simulator"],
    },
)

__version__ = "1.0.0"
__all__.append("__version__")

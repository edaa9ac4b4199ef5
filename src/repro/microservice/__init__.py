"""Microservice runtime substrate.

Service definitions, running instances, per-dependency resilient
clients, the logical application graph, and the deployment builder
that wires everything (including Gremlin agent sidecars) onto a
simulated network.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "app": ["Application", "Deployment", "TrafficSource"],
        "clients": ["CallStats", "DependencyClient"],
        "graph": ["ApplicationGraph"],
        "handlers": [
            "cache_handler",
            "chain_handler",
            "credential_handler",
            "fanout_handler",
            "proxy_handler",
            "static_handler",
            "store_handler",
        ],
        "instance": ["ServiceInstance"],
        "resilience": [
            "BreakerState",
            "CircuitBreaker",
            "PolicySpec",
        ],
        "service": [
            "DEFAULT_SERVICE_PORT",
            "ServiceContext",
            "ServiceDefinition",
            "ServiceHandler",
        ],
    },
)

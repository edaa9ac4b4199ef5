"""Resilience design patterns (paper Section 2.1).

Timeouts, bounded retries, circuit breakers and bulkheads — the four
best-practice patterns whose presence (or absence) Gremlin's assertion
checker validates from network observations alone.  A
:class:`PolicySpec` declares them per dependency; the
:class:`~repro.microservice.clients.DependencyClient` runs it, with a
:class:`CircuitBreaker` of its own when the spec asks for one.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "circuit_breaker": ["BreakerState", "CircuitBreaker"],
        "policy": ["PolicySpec"],
    },
)

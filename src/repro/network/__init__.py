"""Simulated L4 network: addresses, latency models, transport.

The transport exposes precisely the failure observables of the paper's
fault model: refused connections, connect timeouts under partition,
resets, and silently-dropped in-flight messages.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "address": ["Address", "LOOPBACK"],
        "latency": [
            "FixedLatency",
            "LatencyModel",
            "LognormalLatency",
            "NoLatency",
            "UniformLatency",
            "as_latency",
        ],
        "transport": ["Connection", "ConnectionEnd", "ExchangeEnd", "Host", "Listener", "Network"],
    },
)

"""Publish-subscribe substrate: a broker built as a microservice.

Both hops of the pattern (publisher -> broker, broker -> subscriber)
are ordinary HTTP calls through Gremlin sidecars, so pub-sub flows are
fault-injectable and observable with the same primitives as
request-response — observation O2 of the paper made concrete.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "broker": [
            "BrokerConfig",
            "DELIVER_PREFIX",
            "PUBLISH_PREFIX",
            "broker_definition",
            "publish",
        ],
    },
)

"""Request-ID generation and propagation (the Dapper/Zipkin stand-in).

The paper (Section 4.1) relies on the common practice of tagging every
user request with a globally unique ID that each microservice forwards
downstream; Gremlin agents match rule patterns against this ID so fault
injection can be confined to test traffic (e.g. IDs of the form
``test-*``) while production flows pass untouched.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "context": [
            "RequestIdGenerator",
            "SpanIdGenerator",
            "TEST_ID_PREFIX",
            "TRACE_HEADERS",
            "is_test_request_id",
            "propagate",
        ],
    },
)

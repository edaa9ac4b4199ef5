"""The Gremlin data plane: fault rules, matchers, the sidecar proxy.

This package is half of the paper's contribution (Section 4.1): network
proxies that intercept, log, and manipulate messages exchanged between
microservices, exposing the Abort/Delay/Modify interface of Table 2 to
the control plane.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "control_api": ["AgentControlChannel", "rule_from_wire", "rule_to_wire"],
        "faults": ["modify_request", "modify_response", "synthesize_abort_response"],
        "matcher": [
            "InstalledRule",
            "LinearMatcher",
            "PrefixIndexMatcher",
            "RuleMatcher",
            "TableMatcher",
            "make_matcher",
        ],
        "proxy": ["GremlinAgent"],
        "rules": [
            "FaultRule",
            "FaultType",
            "MessageDirection",
            "TCP_RESET",
            "abort",
            "delay",
            "modify",
        ],
    },
)

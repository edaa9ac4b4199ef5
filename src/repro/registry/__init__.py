"""Service registry: logical service names -> physical instances.

The Failure Orchestrator uses the registry to locate *every* physical
instance of the Gremlin agents fronting a given service (paper Section
4.2 and Figure 3: applying a rule between ServiceA and ServiceB must
configure the agents of all ServiceA instances).
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "registry": ["InstanceRecord", "ServiceRegistry"],
    },
)

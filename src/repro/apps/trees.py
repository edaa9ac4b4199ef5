"""Binary-tree applications for the scaling benchmarks (paper Fig 7).

Paper Section 7.2: "we packaged a naive Python-based application along
with the Gremlin agent into a Docker container.  We then deployed the
containers in different configurations by constructing binary trees of
various depths and using them as the application graph."

``build_tree_app(depth)`` builds a complete binary tree of services:
depth 0 is a single service; depth 4 is the paper's largest, 31
services.  Internal nodes call both children sequentially; leaves
answer directly.
"""

from __future__ import annotations

from repro.microservice.app import Application
from repro.microservice.handlers import fanout_handler
from repro.microservice.resilience.policy import PolicySpec
from repro.microservice.service import ServiceDefinition

__all__ = ["build_tree_app", "build_tree3_app", "tree_service_names", "TREE_ROOT"]

#: Name of the root service in every tree app.
TREE_ROOT = "svc-0"


def tree_service_names(depth: int) -> list[str]:
    """Names of all services in a depth-``depth`` tree (heap order)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    count = 2 ** (depth + 1) - 1
    return [f"svc-{index}" for index in range(count)]


def build_tree_app(
    depth: int,
    service_time: float = 0.001,
    client_policy: PolicySpec | None = None,
) -> Application:
    """A complete binary tree of services, root ``svc-0``.

    Node ``svc-i`` calls ``svc-(2i+1)`` and ``svc-(2i+2)``.  The number
    of services is ``2**(depth+1) - 1``: depths 0..4 give the paper's
    1, 3, 7, 15, 31 configurations.
    """
    names = tree_service_names(depth)
    count = len(names)
    if client_policy is None:
        client_policy = PolicySpec(timeout=30.0)
    app = Application(f"tree-depth-{depth}")
    for index, name in enumerate(names):
        left = 2 * index + 1
        right = 2 * index + 2
        children = [names[child] for child in (left, right) if child < count]
        if children:
            app.add_service(
                ServiceDefinition(
                    name,
                    handler=fanout_handler(children, partial_ok=False),
                    dependencies={child: client_policy for child in children},
                    service_time=service_time,
                )
            )
        else:
            app.add_service(ServiceDefinition(name, service_time=service_time))
    return app


def build_tree3_app() -> Application:
    """Depth-3 service tree, as a zero-argument builder: the CLI's
    ``tree3`` app, module-level so the ``processes`` fleet backend can
    pickle it by reference to its workers."""
    return build_tree_app(3)

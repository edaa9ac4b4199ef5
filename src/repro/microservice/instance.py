"""A running physical instance of a microservice.

Owns the instance's host, HTTP server, worker pool, handler context,
and the per-dependency clients.  Dependency clients are wired by the
:class:`~repro.microservice.app.Application` deployer, which decides
whether calls go through a colocated Gremlin agent (the normal case)
or directly to the callee (a deployment without sidecars).
"""

from __future__ import annotations

import typing as _t

from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.microservice.clients import DependencyClient
from repro.microservice.service import ServiceContext, ServiceDefinition
from repro.network.address import Address
from repro.network.transport import Host
from repro.simulation.kernel import Simulator
from repro.simulation.resources import Semaphore

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import MetricsRegistry

__all__ = ["ServiceInstance"]


class ServiceInstance:
    """One replica of a service, bound to its own simulated host."""

    def __init__(
        self,
        sim: Simulator,
        definition: ServiceDefinition,
        host: Host,
        index: int,
        metrics: "MetricsRegistry",
        canary: bool = False,
    ) -> None:
        self.sim = sim
        self.definition = definition
        self.host = host
        self.index = index
        #: True for replicas dedicated to test traffic (paper Section 9).
        self.canary = canary
        tag = "canary-" if canary else ""
        self.instance_id = f"{definition.name.lower()}-{tag}{index}"
        self.clients: dict[str, DependencyClient] = {}
        self.ctx = ServiceContext(self)
        self.server = HttpServer(
            host, definition.port, self._handle, name=self.instance_id
        )
        self._workers: Semaphore | None = (
            Semaphore(sim, definition.worker_pool, name=f"{self.instance_id}/workers")
            if definition.worker_pool is not None
            else None
        )
        #: Requests that had to queue for a worker, for overload analysis.
        self.queued_requests = 0
        service = definition.name
        self._requests_total = metrics.counter("service_requests_total", service=service)
        self._queued_total = metrics.counter("service_queued_requests_total", service=service)

    @property
    def address(self) -> Address:
        """The address this instance serves on."""
        return Address(self.host.name, self.definition.port)

    @property
    def running(self) -> bool:
        """True while the instance's HTTP server is bound."""
        return self.server.running

    def start(self) -> "ServiceInstance":
        """Bind the server; the deployer calls this after wiring clients."""
        self.server.start()
        return self

    def stop(self) -> None:
        """Unbind the server — a *real* crash/stop, as opposed to the
        emulated crash Gremlin stages with Abort rules.  Used by tests
        that compare emulated against actual failures."""
        self.server.stop()

    def add_client(self, client: DependencyClient) -> None:
        """Attach the policy-wrapped client for one dependency."""
        self.clients[client.dependency] = client

    def _handle(
        self, request: HttpRequest
    ) -> _t.Generator[_t.Any, _t.Any, HttpResponse]:
        self._requests_total.inc()
        if self._workers is None:
            response = yield from self.definition.handler(self.ctx, request)
            return response
        acquire = self._workers.acquire()
        if not acquire.triggered:
            self.queued_requests += 1
            self._queued_total.inc()
        yield acquire
        try:
            response = yield from self.definition.handler(self.ctx, request)
        finally:
            self._workers.release()
        return response

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<ServiceInstance {self.instance_id}@{self.address} {state}>"

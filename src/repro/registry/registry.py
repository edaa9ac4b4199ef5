"""The service registry implementation.

Mirrors the role of Consul/Eureka-style registries in the paper's
deployments (Section 6 mentions mappings "fetched dynamically from a
service registry"): a mapping from logical service name to the set of
live physical instances, each with its serving address and — when a
Gremlin sidecar fronts it — the agent's control endpoint.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import RegistryError, ServiceNotFoundError
from repro.network.address import Address

__all__ = ["InstanceRecord", "ServiceRegistry"]


@dataclasses.dataclass(frozen=True)
class InstanceRecord:
    """One physical instance of a logical service.

    ``agent`` is the in-process handle to the Gremlin agent colocated
    with this instance (the sidecar), or ``None`` for services deployed
    without one — in which case faults cannot be injected on its
    *outbound* calls, exactly like a real deployment missing a sidecar.

    ``canary`` marks an instance dedicated to handling test requests
    (paper Section 9: "copies of a microservice dedicated to handling
    test requests") — sidecars route test-tagged flows to canaries so
    destructive experiments never touch production state.
    """

    service: str
    instance_id: str
    address: Address
    agent: _t.Any = None  # GremlinAgent; Any avoids a circular import
    canary: bool = False

    def __str__(self) -> str:
        return f"{self.service}/{self.instance_id}@{self.address}"


class ServiceRegistry:
    """Name -> instances mapping with registration and lookup."""

    def __init__(self) -> None:
        self._instances: dict[str, dict[str, InstanceRecord]] = {}
        #: service -> its production addresses, as :meth:`addresses`
        #: derives them, and its canary addresses, as
        #: :meth:`canary_addresses` does; both dropped per service by the
        #: two mutators (records themselves are frozen).
        self._production: dict[str, tuple[Address, ...]] = {}
        self._canaries: dict[str, tuple[Address, ...]] = {}

    def register(self, record: InstanceRecord) -> None:
        """Add an instance; duplicate IDs within a service are rejected."""
        by_id = self._instances.setdefault(record.service, {})
        if record.instance_id in by_id:
            raise RegistryError(
                f"instance {record.instance_id!r} of {record.service!r} already registered"
            )
        by_id[record.instance_id] = record
        self._production.pop(record.service, None)
        self._canaries.pop(record.service, None)

    def deregister(self, service: str, instance_id: str) -> None:
        """Remove an instance (no-op if absent)."""
        by_id = self._instances.get(service)
        if by_id is not None:
            by_id.pop(instance_id, None)
            self._production.pop(service, None)
            self._canaries.pop(service, None)
            if not by_id:
                del self._instances[service]

    def instances(self, service: str) -> list[InstanceRecord]:
        """All instances of ``service``; raises if none registered."""
        by_id = self._instances.get(service)
        if not by_id:
            raise ServiceNotFoundError(f"no instances registered for service {service!r}")
        return list(by_id.values())

    def try_instances(self, service: str) -> list[InstanceRecord]:
        """Like :meth:`instances` but returns ``[]`` instead of raising."""
        return list(self._instances.get(service, {}).values())

    def addresses(self, service: str) -> list[Address]:
        """Serving addresses of the *production* instances of ``service``.

        Canary instances are excluded: ordinary traffic must never land
        on them.  If a service consists solely of canaries (a test-only
        deployment), those are returned rather than failing lookups.
        """
        return list(self.production_addresses(service))

    def production_addresses(self, service: str) -> tuple[Address, ...]:
        """What :meth:`addresses` answers, as the registry's own
        immutable memo — for the per-message path, which only indexes it."""
        known = self._production.get(service)
        if known is None:
            records = self.instances(service)
            production = [record.address for record in records if not record.canary]
            known = self._production[service] = tuple(
                production or [record.address for record in records]
            )
        return known

    def canary_addresses(self, service: str) -> list[Address]:
        """Serving addresses of the canary instances of ``service``
        (empty when none are deployed)."""
        return list(self.canary_pool(service))

    def canary_pool(self, service: str) -> tuple[Address, ...]:
        """What :meth:`canary_addresses` answers, as the registry's own
        immutable memo — for the per-message path, which only indexes it."""
        known = self._canaries.get(service)
        if known is None:
            known = self._canaries[service] = tuple(
                record.address for record in self.try_instances(service) if record.canary
            )
        return known

    def services(self) -> list[str]:
        """All registered logical service names (registration order)."""
        return list(self._instances)

    def has_service(self, service: str) -> bool:
        """True if at least one instance of ``service`` is registered."""
        return bool(self._instances.get(service))

    def __len__(self) -> int:
        return sum(len(by_id) for by_id in self._instances.values())

    def __repr__(self) -> str:
        summary = {name: len(by_id) for name, by_id in self._instances.items()}
        return f"<ServiceRegistry {summary}>"

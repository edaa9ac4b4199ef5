"""Application assembly: definitions -> a running simulated deployment.

:class:`Application` collects :class:`ServiceDefinition` objects;
:meth:`Application.deploy` materializes them into a
:class:`Deployment`: one simulated host per replica, a Gremlin agent
sidecar on every host that makes outbound calls, loopback routes per
dependency, registry entries, and the shared log pipeline/event store.

The deployment also derives the *logical application graph* the control
plane needs (paper Section 4.2) from the declared dependencies, and can
attach a traffic source — a client host with its own sidecar, so test
load enters the system through a Gremlin agent and the behaviour of
edge services is observable too (paper Section 6, "test load can be
injected via a Gremlin agent").
"""

from __future__ import annotations

import typing as _t
import weakref

from repro.agent.proxy import GremlinAgent
from repro.errors import RecipeError, SimulationError
from repro.http.client import HttpClient
from repro.logstore.pipeline import LogPipeline
from repro.logstore.store import EventStore
from repro.microservice.clients import DependencyClient
from repro.microservice.graph import ApplicationGraph
from repro.microservice.instance import ServiceInstance
from repro.microservice.resilience.policy import PolicySpec
from repro.microservice.service import ServiceDefinition
from repro.network.latency import LatencyModel
from repro.network.transport import Network
from repro.observability.metrics import MetricsRegistry
from repro.registry.registry import InstanceRecord, ServiceRegistry
from repro.simulation.kernel import Simulator

__all__ = ["Application", "Deployment", "TrafficSource"]

#: First loopback port assigned to sidecar routes on each host.
SIDECAR_BASE_PORT = 9000


class Application:
    """A named collection of service definitions, ready to deploy."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._definitions: dict[str, ServiceDefinition] = {}

    def add_service(self, definition: ServiceDefinition) -> "Application":
        """Register one service definition (chainable)."""
        if definition.name in self._definitions:
            raise RecipeError(f"service {definition.name!r} already defined")
        self._definitions[definition.name] = definition
        return self

    @property
    def definitions(self) -> dict[str, ServiceDefinition]:
        """Name -> definition map (copy)."""
        return dict(self._definitions)

    def logical_graph(self) -> ApplicationGraph:
        """The caller/callee graph implied by declared dependencies."""
        graph = ApplicationGraph()
        for definition in self._definitions.values():
            graph.add_service(definition.name)
            for dependency in definition.dependency_names():
                graph.add_dependency(definition.name, dependency)
        return graph

    def validate(self) -> None:
        """Every declared dependency must itself be a defined service."""
        for definition in self._definitions.values():
            for dependency in definition.dependency_names():
                if dependency not in self._definitions:
                    raise RecipeError(
                        f"{definition.name!r} depends on undefined service {dependency!r}"
                    )

    def deploy(
        self,
        sim: _t.Optional[Simulator] = None,
        seed: int = 0,
        matcher_strategy: str = "prefix",
        log_shipping_delay: float = 0.0,
        log_loss_probability: float = 0.0,
        default_link_latency: _t.Union[float, LatencyModel, None] = 0.0005,
        sidecars: bool = True,
    ) -> "Deployment":
        """Materialize the application into a running deployment.

        ``sidecars=False`` deploys without Gremlin agents: clients dial
        destination instances directly (round-robin at the client).
        Such a deployment cannot be fault-injected or observed — it
        exists as the baseline for proxy-overhead ablations.

        Without ``sim`` the deployment runs on a fresh
        ``Simulator(seed=seed)``.  To run it on the heap reference
        scheduler, pass ``sim=Simulator(seed=..., scheduler="heap")``.
        """
        self.validate()
        return Deployment(
            self,
            sim=sim if sim is not None else Simulator(seed=seed),
            matcher_strategy=matcher_strategy,
            log_shipping_delay=log_shipping_delay,
            log_loss_probability=log_loss_probability,
            default_link_latency=default_link_latency,
            sidecars=sidecars,
        )

    def __repr__(self) -> str:
        return f"<Application {self.name!r} services={list(self._definitions)}>"


class _DiscardedStore:
    """What the sidecars of a discarded deployment ship their records to.

    A deployment's hosts, listeners, servers and agents reference each
    other, so they wait for the cycle collector; the record store they
    reach through the pipeline is the one part that grows with traffic
    and must not wait with them.  When the last reference to the
    :class:`Deployment` goes, this takes the store's place in the
    pipeline: the store is freed with its last real holder, and traffic
    driven afterwards through a handle that outlived the deployment
    fails instead of logging into a store nobody can read.
    """

    def __init__(self, deployment: str) -> None:
        self.deployment = deployment

    def append(self, record: object) -> None:
        raise SimulationError(
            f"deployment {self.deployment!r} was discarded and its record store"
            " released; keep the Deployment for as long as traffic is driven"
        )


def _unplug(pipeline: LogPipeline, deployment: str) -> None:
    pipeline.store = _DiscardedStore(deployment)  # type: ignore[assignment]


class Deployment:
    """A running simulated deployment of an :class:`Application`.

    Nothing the deployment builds refers back to it, so it is freed by
    reference count when its last holder lets go, and its record store
    with it unless somebody kept ``deployment.store`` (see
    :class:`_DiscardedStore`).
    """

    def __init__(
        self,
        application: Application,
        sim: Simulator,
        matcher_strategy: str = "prefix",
        log_shipping_delay: float = 0.0,
        log_loss_probability: float = 0.0,
        default_link_latency: _t.Union[float, LatencyModel, None] = 0.0005,
        sidecars: bool = True,
    ) -> None:
        self.application = application
        self.sim = sim
        self.network = Network(sim, default_latency=default_link_latency)
        self.registry = ServiceRegistry()
        self.store = EventStore()
        #: Deployment-wide metrics registry: sidecars, instances and
        #: dependency clients all record into it; campaign workers merge
        #: per-deployment snapshots afterwards.
        self.metrics = MetricsRegistry()
        self.pipeline = LogPipeline(
            sim,
            self.store,
            shipping_delay=log_shipping_delay,
            loss_probability=log_loss_probability,
        )
        self.graph = application.logical_graph()
        self.matcher_strategy = matcher_strategy
        self.sidecars = sidecars
        self.instances: dict[str, list[ServiceInstance]] = {}
        self.agents: list[GremlinAgent] = []
        self._traffic_sources: dict[str, TrafficSource] = {}
        weakref.finalize(self, _unplug, self.pipeline, application.name).atexit = False
        self._build()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        definitions = self.application.definitions
        # Create all instances first so the registry can resolve targets
        # regardless of declaration order.
        for definition in definitions.values():
            replicas = []
            for index in range(definition.instances):
                host = self.network.add_host(f"{definition.name.lower()}-{index}")
                replicas.append(
                    ServiceInstance(self.sim, definition, host, index, self.metrics)
                )
            for index in range(definition.canary_instances):
                host = self.network.add_host(f"{definition.name.lower()}-canary-{index}")
                replicas.append(
                    ServiceInstance(self.sim, definition, host, index, self.metrics, canary=True)
                )
            self.instances[definition.name] = replicas
        # Wire sidecars + clients, register, and start.
        for definition in definitions.values():
            for instance in self.instances[definition.name]:
                agent = self._wire_instance(instance)
                self.registry.register(
                    InstanceRecord(
                        service=definition.name,
                        instance_id=instance.instance_id,
                        address=instance.address,
                        agent=agent,
                        canary=instance.canary,
                    )
                )
                instance.start()

    def _wire_instance(self, instance: ServiceInstance) -> GremlinAgent | None:
        definition = instance.definition
        dependencies = definition.dependency_names()
        if not dependencies:
            return None
        if not self.sidecars:
            self._wire_direct_clients(instance)
            return None
        agent = GremlinAgent(
            self.sim,
            instance.host,
            owner_service=definition.name,
            owner_instance=instance.instance_id,
            registry=self.registry,
            pipeline=self.pipeline,
            metrics=self.metrics,
            matcher_strategy=self.matcher_strategy,
        )
        http = HttpClient(instance.host)
        for offset, dependency in enumerate(dependencies):
            port = SIDECAR_BASE_PORT + offset
            agent.add_route(port, dependency)
            instance.add_client(
                DependencyClient(
                    self.sim,
                    http,
                    caller=definition.name,
                    dependency=dependency,
                    target=agent.route_address(dependency),
                    policy=definition.dependencies[dependency],
                    metrics=self.metrics,
                    name=f"{instance.instance_id}->{dependency}",
                )
            )
        agent.start()
        self.agents.append(agent)
        return agent

    def _wire_direct_clients(self, instance: ServiceInstance) -> None:
        """Sidecar-less wiring: clients dial destination instances
        directly with client-side round-robin.  Baseline for the proxy
        overhead ablation — no observation, no injection."""
        definition = instance.definition
        http = HttpClient(instance.host)
        for dependency in definition.dependency_names():
            counters = {"next": 0}

            def resolver(dep=dependency, counters=counters, registry=self.registry):
                addresses = registry.addresses(dep)
                index = counters["next"]
                counters["next"] = index + 1
                return addresses[index % len(addresses)]

            instance.add_client(
                DependencyClient(
                    self.sim,
                    http,
                    caller=definition.name,
                    dependency=dependency,
                    target=resolver,
                    policy=definition.dependencies[dependency],
                    metrics=self.metrics,
                    name=f"{instance.instance_id}->{dependency}",
                )
            )

    # -- observability -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Plain-data snapshot of every metric series in the deployment.

        Mergeable with other deployments' snapshots via
        :func:`repro.observability.metrics.merge_snapshots` — how
        campaigns aggregate across recipes and workers.
        """
        return self.metrics.snapshot()

    # -- lookups ----------------------------------------------------------------

    def instances_of(self, service: str) -> list[ServiceInstance]:
        """All replicas of a service (production first, then canaries)."""
        try:
            return self.instances[service]
        except KeyError:
            raise RecipeError(f"unknown service {service!r}") from None

    def production_instances_of(self, service: str) -> list[ServiceInstance]:
        """Only the replicas serving ordinary (non-canary) traffic."""
        return [instance for instance in self.instances_of(service) if not instance.canary]

    def canaries_of(self, service: str) -> list[ServiceInstance]:
        """Only the canary replicas dedicated to test traffic."""
        return [instance for instance in self.instances_of(service) if instance.canary]

    def agents_of(self, service: str) -> list[GremlinAgent]:
        """The sidecar agents of every replica of ``service`` (may be
        empty when the service has no outbound dependencies).

        Traffic sources count: their agents carry the source's name as
        ``owner_service``, so rules with ``src=<source>`` reach them.
        """
        if service not in self.instances and service not in self._traffic_sources:
            raise RecipeError(f"unknown service {service!r}")
        return [agent for agent in self.agents if agent.owner_service == service]

    # -- traffic sources ---------------------------------------------------------

    def add_traffic_source(
        self,
        target_service: str,
        name: str = "user",
        policy: _t.Optional[PolicySpec] = None,
    ) -> "TrafficSource":
        """Attach an external client (load-injection point).

        The source gets its own host and sidecar agent fronting
        ``target_service``, so the test load itself is observable and
        injectable — ``GetRequests(name, target_service)`` works and
        rules with ``src=name`` apply.
        """
        if name in self._traffic_sources:
            raise RecipeError(f"traffic source {name!r} already exists")
        if target_service not in self.instances:
            raise RecipeError(f"unknown target service {target_service!r}")
        source = TrafficSource(self, name, target_service, policy or PolicySpec.naive())
        self._traffic_sources[name] = source
        self.graph.add_dependency(name, target_service)
        return source

    def traffic_source(self, name: str = "user") -> "TrafficSource":
        """Look up a previously-attached traffic source."""
        return self._traffic_sources[name]

    def __repr__(self) -> str:
        counts = {name: len(replicas) for name, replicas in self.instances.items()}
        return f"<Deployment {self.application.name!r} {counts}>"


class TrafficSource:
    """An external client host with its own sidecar agent.

    Exposes a :class:`DependencyClient` toward the target service; the
    load generators in :mod:`repro.loadgen` drive it.
    """

    def __init__(
        self,
        deployment: Deployment,
        name: str,
        target_service: str,
        policy_spec: PolicySpec,
    ) -> None:
        #: The simulator this source runs on.  (Not the deployment: it
        #: holds its sources, and a source holding it back would make
        #: every deployment a reference cycle.)
        self.sim = sim = deployment.sim
        self.name = name
        self.target_service = target_service
        self.host = deployment.network.add_host(f"{name.lower()}-src")
        self.agent: GremlinAgent | None = None
        if deployment.sidecars:
            self.agent = GremlinAgent(
                sim,
                self.host,
                owner_service=name,
                owner_instance=f"{name.lower()}-src",
                registry=deployment.registry,
                pipeline=deployment.pipeline,
                metrics=deployment.metrics,
                matcher_strategy=deployment.matcher_strategy,
            )
            self.agent.add_route(SIDECAR_BASE_PORT, target_service)
            self.agent.start()
            deployment.agents.append(self.agent)
            target: _t.Any = self.agent.route_address(target_service)
        else:
            counters = {"next": 0}

            def target(dep=target_service, counters=counters, registry=deployment.registry):
                addresses = registry.addresses(dep)
                index = counters["next"]
                counters["next"] = index + 1
                return addresses[index % len(addresses)]

        self.client = DependencyClient(
            sim,
            HttpClient(self.host),
            caller=name,
            dependency=target_service,
            target=target,
            policy=policy_spec,
            metrics=deployment.metrics,
        )

    def __repr__(self) -> str:
        return f"<TrafficSource {self.name!r} -> {self.target_service!r}>"

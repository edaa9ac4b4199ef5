"""Fuzz-case specification: plain-data, JSON-round-trippable.

A :class:`FuzzCase` is the *entire* input of one differential trial —
topology, failure scenarios, assertion checks, workload, and the
deployment seed — expressed as plain data so that a failing case can be
written to a JSON repro artifact and replayed bit-for-bit later (same
spec + same seed = same virtual-time execution).

The spec layer is deliberately independent of the generator: the
shrinker edits specs directly, and hand-written specs are legal inputs
to the differential runner.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.catalog import APPS
from repro.core.assertions import CheckStatus, Combine
from repro.core.patterns import CheckResult, PatternCheck
from repro.core.queries import get_requests, observed_status
from repro.core.recipe import Recipe
from repro.core.scenarios import SCENARIO_KINDS, FailureScenario
from repro.errors import RecipeError
from repro.logstore.store import EventStore
from repro.microservice.app import Application
from repro.microservice.graph import ApplicationGraph
from repro.microservice.handlers import fanout_handler
from repro.microservice.resilience.policy import PolicySpec
from repro.microservice.service import ServiceDefinition

__all__ = [
    "CHECK_KINDS",
    "EdgeCountCheck",
    "EdgeStatusCheck",
    "FuzzCase",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "build_application",
    "build_check",
    "build_scenario",
    "check_to_spec",
    "scenario_to_spec",
]

#: Name of the traffic source attached to every fuzz deployment.  Part
#: of the logical graph (rules with ``src=SOURCE_NAME`` gate the entry
#: edge), so specs and the oracle refer to it by this constant.
SOURCE_NAME = "user"


# -- fuzz-specific pattern checks ---------------------------------------------
#
# The generated assertion sets are restricted to checks whose verdicts
# depend only on record *sequences and statuses*, never on timestamps —
# that is what lets the reference oracle predict them exactly without
# modeling virtual-clock arithmetic.  Both still drive the real query
# engine and (for EdgeStatusCheck) the real Combine/CheckStatus state
# machine, which is the layer under differential test.


@dataclasses.dataclass(eq=False, repr=False)
class EdgeStatusCheck(PatternCheck):
    """At least ``num_match`` requests on one edge saw ``status``."""

    name = "edge_status"

    src: str
    dst: str
    status: int
    num_match: int = 1
    with_rule: bool = True
    id_pattern: str = "test-*"

    def run(
        self,
        store: EventStore,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        state: _t.Optional[dict] = None,
    ) -> CheckResult:
        rlist = get_requests(store, self.src, self.dst, self.id_pattern, since, until)
        if not rlist:
            return self._no_data(f"no requests observed {self.src}->{self.dst}")
        outcome = Combine(
            CheckStatus(self.status, self.num_match, self.with_rule)
        ).evaluate(rlist)
        detail = outcome.steps[0].detail
        return CheckResult(
            name=self.label(),
            passed=outcome.passed,
            detail=detail,
            data={"observed": len(rlist)},
        )

    def _no_data(self, detail: str) -> CheckResult:
        return CheckResult(self.label(), passed=False, detail=detail, inconclusive=True)

    def label(self) -> str:
        """The stable result name the oracle predicts against."""
        return (
            f"edge_status({self.src}->{self.dst}, {self.status}"
            f" x{self.num_match}, withRule={self.with_rule})"
        )


@dataclasses.dataclass(eq=False, repr=False)
class EdgeCountCheck(PatternCheck):
    """The number of requests on one edge compares to ``count``.

    Unlike :class:`EdgeStatusCheck`, zero observations are meaningful
    (``== 0`` asserts an edge was *not* exercised), so there is no
    inconclusive outcome.
    """

    name = "edge_count"

    _OPS: _t.ClassVar[dict[str, _t.Callable[[int, int], bool]]] = {
        "==": lambda have, want: have == want,
        ">=": lambda have, want: have >= want,
        "<=": lambda have, want: have <= want,
    }

    src: str
    dst: str
    op: str
    count: int
    id_pattern: str = "test-*"

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise RecipeError(
                f"edge_count op must be one of {sorted(self._OPS)}, got {self.op!r}"
            )

    def label(self) -> str:
        """The stable result name the oracle predicts against."""
        return f"edge_count({self.src}->{self.dst} {self.op} {self.count})"

    def run(
        self,
        store: EventStore,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        state: _t.Optional[dict] = None,
    ) -> CheckResult:
        rlist = get_requests(store, self.src, self.dst, self.id_pattern, since, until)
        have = len(rlist)
        passed = self._OPS[self.op](have, self.count)
        return CheckResult(
            name=self.label(),
            passed=passed,
            detail=f"observed {have} requests, want {self.op} {self.count}",
            data={"observed": have},
        )


# -- scenario / check codecs ---------------------------------------------------

#: Every fuzz check kind the spec codec can name, by its ``name``.
CHECK_KINDS: dict[str, type[PatternCheck]] = {
    cls.name: cls for cls in (EdgeStatusCheck, EdgeCountCheck)
}

ScenarioSpec = _t.Dict[str, _t.Any]
CheckSpec = _t.Dict[str, _t.Any]


def _jsonable(value: _t.Any) -> _t.Any:
    if isinstance(value, bytes):  # Modify patterns may be bytes
        return value.decode("latin-1")
    return value


def _to_spec(kinds: _t.Mapping[str, type], what: str, obj: _t.Any) -> dict:
    """``{"kind", "params"}`` for a dataclass named in ``kinds``; the
    params are its fields, in declaration order."""
    for kind, cls in kinds.items():
        if type(obj) is cls:
            return {
                "kind": kind,
                "params": {
                    field.name: _jsonable(getattr(obj, field.name))
                    for field in dataclasses.fields(cls)
                },
            }
    raise RecipeError(f"unserializable {what} type {type(obj).__name__}")


def _from_spec(kinds: _t.Mapping[str, type], what: str, spec: dict) -> _t.Any:
    try:
        cls = kinds[spec["kind"]]
    except KeyError:
        raise RecipeError(f"unknown {what} kind {spec.get('kind')!r}") from None
    return cls(**spec["params"])


def scenario_to_spec(scenario: FailureScenario) -> ScenarioSpec:
    """Serialize one scenario to a ``{"kind", "params"}`` spec."""
    return _to_spec(SCENARIO_KINDS, "scenario", scenario)


def build_scenario(spec: ScenarioSpec) -> FailureScenario:
    """Rebuild a scenario from its spec."""
    return _from_spec(SCENARIO_KINDS, "scenario", spec)


def check_to_spec(check: PatternCheck) -> CheckSpec:
    """Serialize one fuzz check to a ``{"kind", "params"}`` spec."""
    return _to_spec(CHECK_KINDS, "check", check)


def build_check(spec: CheckSpec) -> PatternCheck:
    """Rebuild a check from its spec."""
    return _from_spec(CHECK_KINDS, "check", spec)


# -- topology -----------------------------------------------------------------


@dataclasses.dataclass
class TopologySpec:
    """A logical topology: either a synthetic DAG or a named app.

    Synthetic DAGs (``kind="dag"``) are built from naive-policy
    services: interior services run :func:`fanout_handler` over their
    children (``partial_ok`` per service), leaves answer statically.
    With one replica per service, no timeouts/retries/breakers, and a
    sequential closed-loop workload the whole execution is a
    deterministic DFS — the domain where the reference oracle predicts
    outcomes exactly.

    Named apps (``kind="app"``, built from the :data:`~repro.apps.APPS`
    catalog) carry real resilience policies, so they are exercised by
    the metamorphic checks only.
    """

    kind: str
    #: dag: service names in declaration order.
    services: _t.List[str] = dataclasses.field(default_factory=list)
    #: dag: (caller, callee) pairs; children are called in edge order.
    edges: _t.List[_t.Tuple[str, str]] = dataclasses.field(default_factory=list)
    #: Service the traffic source dials.
    entry: str = ""
    #: dag: services whose fanout degrades gracefully (partial_ok=True).
    partial_ok: _t.List[str] = dataclasses.field(default_factory=list)
    #: app: catalog name.
    app: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("dag", "app"):
            raise RecipeError(f"topology kind must be 'dag' or 'app', got {self.kind!r}")
        self.edges = [tuple(edge) for edge in self.edges]

    def children(self, service: str) -> _t.List[str]:
        """A dag service's callees, in call order."""
        return [dst for src, dst in self.edges if src == service]

    def logical_graph(self) -> ApplicationGraph:
        """The dag's graph *including* the traffic-source edge.

        Edges are inserted grouped by caller in service-declaration
        order — exactly how :meth:`Application.logical_graph` inserts
        them at deploy time — because scenario decomposition iterates
        graph neighborhoods in insertion order and the oracle must
        derive the *same rule order* as the real control plane.  The
        traffic-source edge comes last, mirroring
        ``Deployment.add_traffic_source``.
        """
        graph = ApplicationGraph()
        for service in self.services:
            graph.add_service(service)
        for service in self.services:
            for child in self.children(service):
                graph.add_dependency(service, child)
        graph.add_dependency(SOURCE_NAME, self.entry)
        return graph

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "services": list(self.services),
            "edges": [list(edge) for edge in self.edges],
            "entry": self.entry,
            "partial_ok": list(self.partial_ok),
            "app": self.app,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        return cls(
            kind=data["kind"],
            services=list(data.get("services", [])),
            edges=[tuple(edge) for edge in data.get("edges", [])],
            entry=data.get("entry", ""),
            partial_ok=list(data.get("partial_ok", [])),
            app=data.get("app", ""),
        )


def build_application(topology: TopologySpec) -> Application:
    """Materialize a topology spec into a deployable Application; a
    named app is built from the :data:`~repro.apps.APPS` catalog."""
    if topology.kind == "app":
        if topology.app not in APPS:
            raise RecipeError(f"unknown app topology {topology.app!r}")
        return APPS[topology.app]()
    application = Application(f"fuzz-dag-{len(topology.services)}")
    partial = set(topology.partial_ok)
    for service in topology.services:
        children = topology.children(service)
        if children:
            application.add_service(
                ServiceDefinition(
                    service,
                    handler=fanout_handler(children, partial_ok=service in partial),
                    dependencies={child: PolicySpec.naive() for child in children},
                )
            )
        else:
            application.add_service(ServiceDefinition(service))
    return application


# -- workload -----------------------------------------------------------------


@dataclasses.dataclass
class WorkloadSpec:
    """Closed-loop workload parameters (sequential => deterministic)."""

    requests: int = 4
    think_time: float = 0.0

    def to_dict(self) -> dict:
        return {"requests": self.requests, "think_time": self.think_time}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(requests=data["requests"], think_time=data.get("think_time", 0.0))


# -- the case -----------------------------------------------------------------


@dataclasses.dataclass
class FuzzCase:
    """One complete differential-fuzzing trial, as plain data."""

    case_id: str
    seed: int
    topology: TopologySpec
    scenarios: _t.List[ScenarioSpec]
    checks: _t.List[CheckSpec] = dataclasses.field(default_factory=list)
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)

    @property
    def deterministic(self) -> bool:
        """True when no rule can take a fractional probability draw
        (:attr:`FailureScenario.draws`), so exact trace prediction and
        digest-comparison metamorphic checks are only run on such cases.
        """
        return not any(build_scenario(spec).draws for spec in self.scenarios)

    @property
    def oracle_eligible(self) -> bool:
        """True when the reference oracle can predict this case exactly."""
        return self.topology.kind == "dag" and self.deterministic

    def recipe(self) -> Recipe:
        """The case's scenarios + checks as a real :class:`Recipe`."""
        return Recipe(
            name=self.case_id,
            scenarios=[build_scenario(spec) for spec in self.scenarios],
            checks=[build_check(spec) for spec in self.checks],
        )

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "seed": self.seed,
            "topology": self.topology.to_dict(),
            "scenarios": [dict(spec, params=dict(spec["params"])) for spec in self.scenarios],
            "checks": [dict(spec, params=dict(spec["params"])) for spec in self.checks],
            "workload": self.workload.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(
            case_id=data["case_id"],
            seed=data["seed"],
            topology=TopologySpec.from_dict(data["topology"]),
            scenarios=[dict(spec, params=dict(spec["params"])) for spec in data["scenarios"]],
            checks=[dict(spec, params=dict(spec["params"])) for spec in data.get("checks", [])],
            workload=WorkloadSpec.from_dict(data.get("workload", {"requests": 4})),
        )

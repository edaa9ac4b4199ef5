"""Seeded generator of random fuzz cases.

Every case is derived from ``(master_seed, index)`` through
:func:`~repro.campaign.plan.derive_seed`-style hashing, so a master
seed names an entire reproducible corpus: case ``i`` is the same
topology, scenarios, checks, and workload on every machine and for
every worker count, and a failing case replays from its index alone.

The generator skews toward the oracle's deterministic domain (most
probabilities are 0 or 1) while still producing fractional-probability
and named-app cases that exercise the metamorphic checks — the
differential runner picks the applicable battery per case.
"""

from __future__ import annotations

import random
import typing as _t

from repro.apps.catalog import APPS
from repro.campaign.plan import derive_seed
from repro.fuzz.spec import (
    SOURCE_NAME,
    CheckSpec,
    FuzzCase,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["FuzzGenerator"]

#: Substrings that occur in fanout/leaf reply bodies — Modify rules
#: generated from these can structurally match real traffic.
_BODY_TOKENS = ("ok", "from", "dependency", "degraded")

_ABORT_STATUSES = (500, 502, 503)
_DELAY_INTERVALS = ("50ms", "100ms", "250ms")
_ID_PATTERNS = ("test-*", "test-1", "*")


class FuzzGenerator:
    """Derives :class:`FuzzCase` instances from a master seed."""

    def __init__(self, master_seed: int, *, app_fraction: float = 0.2) -> None:
        self.master_seed = master_seed
        #: Share of cases drawn from the :data:`~repro.apps.APPS` catalog
        #: (``0.0``: synthetic DAGs only).
        self.app_fraction = app_fraction
        #: name -> (services, edges, entry), derived once per app.
        self._app_shapes: dict[str, tuple] = {}

    # -- public API ----------------------------------------------------------

    def case(self, index: int) -> FuzzCase:
        """Case ``index`` of this master seed's corpus."""
        rng = random.Random(derive_seed(self.master_seed, "fuzz-case", index))
        if rng.random() < self.app_fraction:
            topology, services, edges = self._app_topology(rng)
        else:
            topology, services, edges = self._dag_topology(rng)
        # Rules can also gate the traffic-source edge.
        rule_edges = [(SOURCE_NAME, topology.entry)] + list(edges)
        # Service-targeted scenarios (crash/hang/overload/degrade)
        # decompose over the target's *dependents*, so they may only
        # pick services that have callers at runtime: every edge
        # destination, plus the entry (which the traffic source dials).
        # Named apps can have additional entry services nobody calls.
        targets = sorted({dst for _, dst in edges} | {topology.entry})
        scenarios = [
            self._scenario(rng, services, targets, rule_edges)
            for _ in range(rng.randint(1, 3))
        ]
        checks = [
            self._check(rng, rule_edges) for _ in range(rng.randint(1, 3))
        ]
        workload = WorkloadSpec(
            requests=rng.randint(2, 8),
            think_time=rng.choice((0.0, 0.01, 0.1)),
        )
        return FuzzCase(
            case_id=f"fuzz-{self.master_seed}-{index}",
            seed=derive_seed(self.master_seed, "fuzz-deploy", index),
            topology=topology,
            scenarios=scenarios,
            checks=checks,
            workload=workload,
        )

    def generate(self, count: int) -> _t.List[FuzzCase]:
        """The first ``count`` cases of the corpus."""
        return [self.case(index) for index in range(count)]

    # -- topologies ----------------------------------------------------------

    def _dag_topology(self, rng: random.Random) -> tuple:
        """A connected DAG: every non-root service has >= 1 caller."""
        size = rng.randint(3, 7)
        services = [f"s{i}" for i in range(size)]
        edges: list[tuple] = []
        for j in range(1, size):
            parents = rng.sample(range(j), k=min(j, rng.randint(1, 2)))
            for i in sorted(parents):
                edges.append((services[i], services[j]))
        # A few extra forward edges for diamond shapes.
        for _ in range(rng.randint(0, 2)):
            i = rng.randint(0, size - 2)
            j = rng.randint(i + 1, size - 1)
            if (services[i], services[j]) not in edges:
                edges.append((services[i], services[j]))
        # Group by caller so edge order == call order == graph order.
        edges.sort(key=lambda edge: services.index(edge[0]))
        interior = sorted({src for src, _ in edges})
        partial_ok = [
            service for service in interior if rng.random() < 0.3
        ]
        topology = TopologySpec(
            kind="dag",
            services=services,
            edges=edges,
            entry=services[0],
            partial_ok=partial_ok,
        )
        return topology, services, edges

    def _app_topology(self, rng: random.Random) -> tuple:
        """A named prebuilt application (metamorphic battery only)."""
        name = rng.choice(sorted(APPS))
        services, edges, entry = self._app_shape(name)
        topology = TopologySpec(kind="app", entry=entry, app=name)
        return topology, services, edges

    def _app_shape(self, name: str) -> tuple:
        shape = self._app_shapes.get(name)
        if shape is None:
            graph = APPS[name]().logical_graph()
            services = sorted(graph.services())
            edges = sorted(graph.edges())
            entry = graph.entry_services()[0]
            shape = self._app_shapes[name] = (services, edges, entry)
        return shape

    # -- scenarios -----------------------------------------------------------

    def _probability(self, rng: random.Random) -> float:
        """Mostly deterministic; occasionally fractional (metamorphic)."""
        roll = rng.random()
        if roll < 0.70:
            return 1.0
        if roll < 0.85:
            return 0.0
        return rng.choice((0.25, 0.5, 0.75))

    def _max_matches(self, rng: random.Random) -> _t.Optional[int]:
        return rng.choice((None, None, None, 1, 2, 3))

    def _scenario(
        self,
        rng: random.Random,
        services: _t.Sequence[str],
        targets: _t.Sequence[str],
        edges: _t.Sequence[tuple],
    ) -> ScenarioSpec:
        kind = rng.choice(
            (
                "abort", "abort", "delay", "delay", "modify", "disconnect",
                "crash", "hang", "overload", "degrade", "partition",
                "fake_success", "retry_storm", "gray_failure",
                "misconfiguration", "resource_exhaustion", "noop_control",
            )
        )
        src, dst = rng.choice(list(edges))
        service = rng.choice(list(targets))
        if kind == "abort":
            params = {
                "src": src,
                "dst": dst,
                "error": rng.choice(_ABORT_STATUSES),
                "pattern": rng.choice(_ID_PATTERNS),
                "on": rng.choice(("request", "response")),
                "probability": self._probability(rng),
                "max_matches": self._max_matches(rng),
            }
        elif kind == "delay":
            params = {
                "src": src,
                "dst": dst,
                "interval": rng.choice(_DELAY_INTERVALS),
                "pattern": rng.choice(_ID_PATTERNS),
                "on": rng.choice(("request", "response")),
                "probability": self._probability(rng),
                "max_matches": self._max_matches(rng),
            }
        elif kind == "modify":
            params = {
                "src": src,
                "dst": dst,
                "pattern": rng.choice(_BODY_TOKENS),
                "replace_bytes": rng.choice(("oops", "nope", "")),
                "id_pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "disconnect":
            params = {
                "service1": src,
                "service2": dst,
                "error": rng.choice(_ABORT_STATUSES),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "crash":
            params = {
                "service": service,
                "pattern": rng.choice(_ID_PATTERNS),
                "probability": rng.choice((1.0, 1.0, 0.0)),
            }
        elif kind == "hang":
            params = {
                "service": service,
                "interval": rng.choice(("1s", "2s")),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "overload":
            params = {
                "service": service,
                "abort_fraction": rng.choice((0.0, 0.25, 0.5, 1.0)),
                "interval": rng.choice(_DELAY_INTERVALS),
                "error": rng.choice(_ABORT_STATUSES),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "degrade":
            params = {
                "service": service,
                "interval": rng.choice(("500ms", "1s")),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "partition":
            shuffled = list(services)
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            params = {
                "group_a": sorted(shuffled[:cut]),
                "group_b": sorted(shuffled[cut:]),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "fake_success":
            params = {
                "service": service,
                "pattern": rng.choice(_BODY_TOKENS),
                "replace_bytes": rng.choice(("oops", "fine")),
                "id_pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "retry_storm":
            params = {
                "service": service,
                "error": rng.choice(_ABORT_STATUSES),
                "pattern": rng.choice(_ID_PATTERNS),
                "probability": rng.choice((1.0, 1.0, 0.0)),
            }
        elif kind == "gray_failure":
            params = {
                "service": service,
                "interval": rng.choice(_DELAY_INTERVALS),
                "slow_fraction": rng.choice((1.0, 1.0, 0.0, 0.5)),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "misconfiguration":
            params = {
                "service": service,
                "mode": rng.choice(("endpoint", "reply")),
                "error": rng.choice((404, 400)),
                "reply_pattern": rng.choice(_BODY_TOKENS),
                "replace_bytes": rng.choice(("<garbage>", "???")),
                "pattern": rng.choice(_ID_PATTERNS),
            }
        elif kind == "resource_exhaustion":
            params = {
                "service": service,
                "interval": rng.choice(_DELAY_INTERVALS),
                "shed_after": rng.randint(1, 4),
                "error": 429,
                "pattern": rng.choice(_ID_PATTERNS),
            }
        else:  # noop_control
            params = {
                "service": service,
                "pattern": rng.choice(_ID_PATTERNS),
            }
        return {"kind": kind, "params": params}

    # -- checks --------------------------------------------------------------

    def _check(self, rng: random.Random, edges: _t.Sequence[tuple]) -> CheckSpec:
        src, dst = rng.choice(list(edges))
        if rng.random() < 0.5:
            params = {
                "src": src,
                "dst": dst,
                "status": rng.choice((200, 500, 502, 503)),
                "num_match": rng.randint(1, 3),
                "with_rule": rng.random() < 0.7,
                "id_pattern": rng.choice(_ID_PATTERNS),
            }
            return {"kind": "edge_status", "params": params}
        params = {
            "src": src,
            "dst": dst,
            "op": rng.choice(("==", ">=", "<=")),
            "count": rng.randint(0, 8),
            "id_pattern": rng.choice(_ID_PATTERNS),
        }
        return {"kind": "edge_count", "params": params}

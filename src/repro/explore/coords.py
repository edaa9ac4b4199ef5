"""Execution-index coordinates: replayable names for injection points.

Random fuzzing asks "inject *something somewhere*"; systematic
exploration needs to ask "inject *this fault at exactly that point*"
and to come back to the same point tomorrow.  Following Distributed
Execution Indexing (Meiklejohn & Padhye), every concrete injection
point is named by a :class:`Coordinate`:

    (entrypoint, call-path, invocation ordinal, fault primitive)

The coordinate space is discovered, not declared: one fault-free
execution of the app under its manifest workload yields causal trees
(via the observability layer), and every span in the representative
tree becomes one call-path.  Two granularities are enumerated:

* **sweep** — a persistent fault on one dependency edge across the
  whole test window (the FastFI-style per-edge robustness sweep).
  These seed the exploration frontier: bugs that need sustained
  pressure (retry storms, stuck breakers) only surface under sweeps.
* **single** — a surgical fault on exactly one invocation: the
  ``ordinal``-th call on one edge within one named request.  Replay
  compiles to a rule with an exact request-ID pattern,
  ``max_matches=1``, and ``skip_matches=ordinal`` — the K-th
  structural match is the K-th invocation, deterministically, because
  skipping consumes neither budget nor probability draws
  (:mod:`repro.agent.rules`).

Coordinates serialize to JSON (:meth:`Coordinate.to_dict`) and replay
bit-for-bit: the recipe compiler (:mod:`repro.explore.compiler`)
produces the same rules from the same coordinate on any backend.

Single-invocation ordinals count *per edge within one request*, in the
order the source sidecar's matcher observes the calls — which for a
single-replica source equals span-minting order.  Services deployed
with multiple replicas split that counter across per-instance
matchers, so ``single`` coordinates are only enumerated for edges
whose source runs exactly one instance (sweeps are emitted for every
edge regardless).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.outages import SeededBugManifest
from repro.errors import ExploreError
from repro.observability.spans import Span
from repro.observability.trace import Trace
from repro.tracing.context import TEST_ID_PREFIX

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.cascade.graph import DependencyGraph

__all__ = [
    "DEFAULT_FAULT_KINDS",
    "FAULT_PRIMITIVES",
    "SHORT_DELAY",
    "Coordinate",
    "ExplorationSpace",
    "enumerate_space",
    "fault_primitives",
]

#: Interval (seconds) of the short-delay primitive: long enough to be
#: observable in traces, short enough that any sane timeout absorbs it.
SHORT_DELAY = 0.05

#: The fault primitives swept per injection point, in canonical order.
#: ``abort`` is an application-level 503, ``reset`` the paper's
#: ``Error=-1`` TCP-level termination, ``delay`` the manifest's
#: canonical long stall, ``delay_short`` a sub-timeout blip, ``gray``
#: a response-path stall (the reply limps home after the full
#: interval — gray failure), and ``exhaust`` a load-shed 429.
FAULT_PRIMITIVES: _t.Tuple[str, ...] = (
    "abort", "reset", "delay", "delay_short", "gray", "exhaust",
)

#: Primitives swept when a manifest doesn't pick its own vocabulary —
#: the original four, so existing apps' exploration schedules (and
#: their digest/benchmark baselines) are unchanged.
DEFAULT_FAULT_KINDS: _t.Tuple[str, ...] = ("abort", "reset", "delay", "delay_short")


def fault_primitives(manifest: SeededBugManifest) -> _t.List[_t.Tuple[str, dict]]:
    """(name, parameters) for each primitive, resolved for one app.

    The manifest's ``fault_kinds`` picks which primitives get swept
    (canonical :data:`FAULT_PRIMITIVES` order, regardless of how the
    manifest lists them).
    """
    catalog: _t.Dict[str, dict] = {
        "abort": {"error": 503},
        "reset": {"error": -1},
        "delay": {"interval": manifest.delay_interval},
        "delay_short": {"interval": SHORT_DELAY},
        "gray": {"interval": manifest.delay_interval, "on": "response"},
        "exhaust": {"error": 429},
    }
    kinds = set(manifest.fault_kinds)
    unknown = kinds - set(FAULT_PRIMITIVES)
    if unknown:
        raise ExploreError(
            f"manifest {manifest.name!r} lists unknown fault kinds"
            f" {sorted(unknown)}; expected a subset of {FAULT_PRIMITIVES}"
        )
    return [(name, catalog[name]) for name in FAULT_PRIMITIVES if name in kinds]


@dataclasses.dataclass(frozen=True)
class Coordinate:
    """One replayable injection point.

    ``path`` is the service chain from the traffic source to the
    callee, e.g. ``("user", "gateway", "catalog", "pricing")`` — the
    edge under fault is always ``(path[-2], path[-1])``.  ``ordinal``
    is the invocation index of that edge within ``request_id`` (single
    mode; sweeps pin it to 0 and target every test request).
    """

    app: str
    entry: str
    mode: str  # "sweep" | "single"
    path: _t.Tuple[str, ...]
    ordinal: int
    fault: str
    request_id: str  # exact ID (single) or glob over test traffic (sweep)

    def __post_init__(self) -> None:
        if self.mode not in ("sweep", "single"):
            raise ExploreError(f"unknown coordinate mode {self.mode!r}")
        if self.fault not in FAULT_PRIMITIVES:
            raise ExploreError(
                f"unknown fault primitive {self.fault!r};"
                f" expected one of {FAULT_PRIMITIVES}"
            )
        if len(self.path) < 2:
            raise ExploreError(
                f"coordinate path needs at least (src, dst), got {self.path!r}"
            )
        if self.ordinal < 0:
            raise ExploreError(f"ordinal must be >= 0, got {self.ordinal}")

    @property
    def src(self) -> str:
        return self.path[-2]

    @property
    def dst(self) -> str:
        return self.path[-1]

    @property
    def edge(self) -> _t.Tuple[str, str]:
        return (self.src, self.dst)

    @property
    def depth(self) -> int:
        """Edges between the traffic source and the faulted call."""
        return len(self.path) - 1

    def key(self) -> str:
        """Stable identifier used in frontiers, reports, and tests."""
        where = "->".join(self.path)
        if self.mode == "sweep":
            return f"sweep:{self.src}->{self.dst}:{self.fault}"
        return f"single:{where}@{self.ordinal}:{self.fault}"

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "entry": self.entry,
            "mode": self.mode,
            "path": list(self.path),
            "ordinal": self.ordinal,
            "fault": self.fault,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: _t.Mapping) -> "Coordinate":
        try:
            return cls(
                app=data["app"],
                entry=data["entry"],
                mode=data["mode"],
                path=tuple(data["path"]),
                ordinal=int(data["ordinal"]),
                fault=data["fault"],
                request_id=data["request_id"],
            )
        except KeyError as exc:
            raise ExploreError(f"coordinate dict missing field {exc}") from None


@dataclasses.dataclass
class ExplorationSpace:
    """Everything one fault-free discovery run learned about an app."""

    app: str
    entry: str
    seed: int
    #: Sweep coordinates (the seed frontier), enumeration order.
    sweeps: _t.List[Coordinate]
    #: Single-invocation coordinates, enumeration order.
    singles: _t.List[Coordinate]
    #: Discovered dependency edge -> (first-occurrence path, subtree
    #: span count beneath the first occurrence).  Blast radius drives
    #: the frontier's edge ranking.
    edges: _t.Dict[_t.Tuple[str, str], _t.Tuple[_t.Tuple[str, ...], int]]
    #: Shape digests observed fault-free (the coverage baseline).
    baseline_shapes: _t.List[str]
    #: Weighted dependency graph folded from the discovery run's
    #: traces (when the discoverer built one) — the substrate the
    #: ``whatif`` strategy simulates over.
    graph: _t.Optional["DependencyGraph"] = None

    @property
    def coordinates(self) -> _t.List[Coordinate]:
        """Full candidate universe: sweeps first, then singles."""
        return list(self.sweeps) + list(self.singles)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "entry": self.entry,
            "seed": self.seed,
            "sweeps": [coord.to_dict() for coord in self.sweeps],
            "singles": [coord.to_dict() for coord in self.singles],
            "edges": {
                f"{src}->{dst}": {"path": list(path), "subtree": subtree}
                for (src, dst), (path, subtree) in sorted(self.edges.items())
            },
            "baseline_shapes": list(self.baseline_shapes),
            "graph": self.graph.to_dict() if self.graph is not None else None,
        }


def _span_seq(span: Span) -> _t.Tuple[str, int]:
    """Sort key recovering minting order from a ``scope#N`` span ID."""
    scope, _, counter = span.span_id.rpartition("#")
    try:
        return (scope, int(counter))
    except ValueError:
        return (span.span_id, 0)


def _subtree_size(node) -> int:
    return 1 + sum(_subtree_size(child) for child in node.children)


def enumerate_space(
    manifest: SeededBugManifest,
    trace: Trace,
    *,
    seed: int,
    baseline_shapes: _t.Iterable[str],
    multi_instance_srcs: _t.AbstractSet[str] = frozenset(),
) -> ExplorationSpace:
    """Enumerate every injection point from one representative trace.

    ``trace`` is the causal tree of one fault-free request (requests of
    a closed-loop workload are structurally identical, so one tree
    names the whole per-request coordinate space).  ``multi_instance_srcs``
    lists services running more than one replica — their outgoing edges
    get sweeps only (see module docstring).
    """
    primitives = fault_primitives(manifest)

    # Edge ordinal = position among the request's (src, dst) calls in
    # matcher order.  Span IDs are minted by the source sidecar as the
    # call leaves, so (start, minting sequence) is exactly that order.
    edge_spans: _t.Dict[_t.Tuple[str, str], _t.List[Span]] = {}
    for span in trace.spans:
        edge_spans.setdefault((span.src, span.dst), []).append(span)
    ordinal_of: _t.Dict[str, int] = {}
    for group in edge_spans.values():
        group.sort(key=lambda span: (span.start, _span_seq(span)))
        for ordinal, span in enumerate(group):
            ordinal_of[span.span_id] = ordinal

    # Walk the tree: one call-path per node, depth-first in sibling
    # start order (deterministic), recording per-edge first occurrence
    # and blast radius for the frontier's edge ranking.
    edges: _t.Dict[_t.Tuple[str, str], _t.Tuple[_t.Tuple[str, ...], int]] = {}
    singles: _t.List[Coordinate] = []
    request_id = trace.request_id

    def visit(node, prefix: _t.Tuple[str, ...]) -> None:
        span = node.span
        path = prefix + (span.dst,) if prefix else (span.src, span.dst)
        edge = (span.src, span.dst)
        if edge not in edges:
            edges[edge] = (path, _subtree_size(node))
        if span.src not in multi_instance_srcs:
            for fault, _params in primitives:
                singles.append(
                    Coordinate(
                        app=manifest.name,
                        entry=manifest.entry,
                        mode="single",
                        path=path,
                        ordinal=ordinal_of[span.span_id],
                        fault=fault,
                        request_id=request_id,
                    )
                )
        for child in sorted(node.children, key=lambda n: (n.span.start, _span_seq(n.span))):
            visit(child, path)

    for root in sorted(trace.roots, key=lambda n: (n.span.start, _span_seq(n.span))):
        visit(root, ())

    sweeps = [
        Coordinate(
            app=manifest.name,
            entry=manifest.entry,
            mode="sweep",
            path=path,
            ordinal=0,
            fault=fault,
            request_id=f"{TEST_ID_PREFIX}*",
        )
        for edge, (path, _subtree) in edges.items()
        for fault, _params in primitives
    ]
    return ExplorationSpace(
        app=manifest.name,
        entry=manifest.entry,
        seed=seed,
        sweeps=sweeps,
        singles=singles,
        edges=edges,
        baseline_shapes=sorted(set(baseline_shapes)),
    )

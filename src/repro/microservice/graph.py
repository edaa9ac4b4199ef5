"""The logical application graph.

Paper Section 4.2: "The operator is also expected to provide a logical
application graph: a directed graph describing the caller/callee
relationship between different microservices."  The Recipe Translator
walks this graph to decompose high-level scenarios (``dependents`` of a
crashed service, edges across a partition cut) into per-edge fault
rules.

Backed by two insertion-ordered adjacency dicts (successors and
predecessors per service), so every query returns services and edges
in the order they were first declared and importing the package pulls
in nothing beyond the standard library.  ``to_networkx()`` exports a
:mod:`networkx` digraph for ad-hoc analysis (needs the ``graph``
extra).
"""

from __future__ import annotations

import typing as _t

from repro.errors import RecipeError

if _t.TYPE_CHECKING:
    import networkx as nx

__all__ = ["ApplicationGraph"]


class ApplicationGraph:
    """Directed caller -> callee graph over logical service names."""

    def __init__(self) -> None:
        # service -> {neighbour: None}; dicts double as ordered sets.
        # Both maps hold every service, so either one is the node list.
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: _t.Iterable[tuple[str, str]]) -> "ApplicationGraph":
        """Build from ``(caller, callee)`` pairs.

        >>> g = ApplicationGraph.from_edges([("A", "B"), ("B", "C")])
        >>> g.dependents("C")
        ['B']
        """
        graph = cls()
        for caller, callee in edges:
            graph.add_dependency(caller, callee)
        return graph

    def add_service(self, name: str) -> None:
        """Register a service node (idempotent)."""
        if not name:
            raise RecipeError("service name must be non-empty")
        self._add_node(name)

    def add_dependency(self, caller: str, callee: str) -> None:
        """Record that ``caller`` makes API calls to ``callee``."""
        if caller == callee:
            raise RecipeError(f"service {caller!r} cannot depend on itself")
        self._add_node(caller)
        self._add_node(callee)
        self._succ[caller][callee] = None
        self._pred[callee][caller] = None

    # -- queries (the vocabulary of paper Section 5's recipes) --------------

    def services(self) -> list[str]:
        """All service names."""
        return list(self._succ)

    def has_service(self, name: str) -> bool:
        """True if ``name`` is a node of the graph."""
        return name in self._succ

    def edges(self) -> list[tuple[str, str]]:
        """All ``(caller, callee)`` edges, grouped by caller."""
        return [
            (caller, callee)
            for caller, callees in self._succ.items()
            for callee in callees
        ]

    def dependents(self, service: str) -> list[str]:
        """Services that *call* ``service`` (its upstream neighbours).

        This is the ``dependents()`` helper the paper's Crash/Hang/
        Overload recipes iterate over.
        """
        self._require(service)
        return list(self._pred[service])

    def dependencies(self, service: str) -> list[str]:
        """Services that ``service`` calls (its downstream neighbours)."""
        self._require(service)
        return list(self._succ[service])

    def downstream_closure(self, service: str) -> set[str]:
        """Every service transitively reachable from ``service``."""
        self._require(service)
        return _closure(self._succ, service)

    def upstream_closure(self, service: str) -> set[str]:
        """Every service that can transitively reach ``service``."""
        self._require(service)
        return _closure(self._pred, service)

    def edges_across(
        self, group_a: _t.Iterable[str], group_b: _t.Iterable[str]
    ) -> list[tuple[str, str]]:
        """Edges crossing the cut between two service groups (either
        direction).  This is the cut the NetworkPartition scenario
        installs reset-Aborts along (paper Section 5)."""
        set_a = set(group_a)
        set_b = set(group_b)
        overlap = set_a & set_b
        if overlap:
            raise RecipeError(f"partition groups overlap: {sorted(overlap)}")
        for name in set_a | set_b:
            self._require(name)
        return [
            (caller, callee)
            for caller, callee in self.edges()
            if (caller in set_a and callee in set_b) or (caller in set_b and callee in set_a)
        ]

    def entry_services(self) -> list[str]:
        """Services nothing calls — the user-facing edge (e.g. Web App)."""
        return [name for name, callers in self._pred.items() if not callers]

    def leaf_services(self) -> list[str]:
        """Services that call nothing — datastores and third parties."""
        return [name for name, callees in self._succ.items() if not callees]

    def validate_services(self, names: _t.Iterable[str]) -> None:
        """Raise :class:`RecipeError` if any name is not in the graph.

        Recipes are validated against the graph before any rule reaches
        the data plane, so a typo fails fast instead of silently
        injecting nothing.
        """
        unknown = [n for n in names if n not in self._succ]
        if unknown:
            raise RecipeError(
                f"services not in application graph: {unknown}; known: {sorted(self._succ)}"
            )

    def to_networkx(self) -> "nx.DiGraph":
        """An independent :mod:`networkx` digraph with the same services
        and edges, for analysis (needs the ``graph`` extra)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        graph.add_edges_from(self.edges())
        return graph

    # -- internals ------------------------------------------------------------

    def _add_node(self, name: str) -> None:
        self._succ.setdefault(name, {})
        self._pred.setdefault(name, {})

    def _require(self, name: str) -> None:
        if name not in self._succ:
            raise RecipeError(f"unknown service {name!r} (not in application graph)")

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._succ

    def __repr__(self) -> str:
        return (
            f"<ApplicationGraph services={len(self._succ)}"
            f" edges={sum(map(len, self._succ.values()))}>"
        )


def _closure(adjacency: dict[str, dict[str, None]], start: str) -> set[str]:
    """Every node reachable from ``start`` along ``adjacency``, never
    ``start`` itself (not even when a cycle leads back to it)."""
    seen = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    seen.discard(start)
    return seen

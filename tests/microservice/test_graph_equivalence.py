"""The dict-backed ApplicationGraph against a networkx oracle.

Recipe translation, campaign plans and explore frontiers all depend on
the *order* in which the graph lists services and edges, so the oracle
below is the ``nx.DiGraph``-backed implementation the class replaced,
and results are compared as ordered lists, not sets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecipeError
from repro.microservice import ApplicationGraph
from repro.observability.cascade import DependencyGraph

nx = pytest.importorskip("networkx")

_names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
#: ("edge", caller, callee) or ("node", name); repeats and self-edges included.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), _names, _names),
        st.tuples(st.just("node"), _names),
    ),
    max_size=30,
)


def build_both(operations):
    """Apply the same operations to the graph and to the oracle."""
    graph, oracle = ApplicationGraph(), nx.DiGraph()
    for operation in operations:
        if operation[0] == "node":
            graph.add_service(operation[1])
            oracle.add_node(operation[1])
        elif operation[1] == operation[2]:
            with pytest.raises(RecipeError, match="cannot depend on itself"):
                graph.add_dependency(operation[1], operation[2])
        else:
            graph.add_dependency(operation[1], operation[2])
            oracle.add_edge(operation[1], operation[2])
    return graph, oracle


class TestAgainstNetworkx:
    @given(operations=_operations)
    @settings(max_examples=300)
    def test_ordered_queries_and_closures(self, operations):
        graph, oracle = build_both(operations)
        assert graph.services() == list(oracle.nodes)
        assert graph.edges() == list(oracle.edges)
        assert graph.entry_services() == [n for n in oracle.nodes if oracle.in_degree(n) == 0]
        assert graph.leaf_services() == [n for n in oracle.nodes if oracle.out_degree(n) == 0]
        for name in oracle.nodes:
            assert graph.dependents(name) == list(oracle.predecessors(name))
            assert graph.dependencies(name) == list(oracle.successors(name))
            assert graph.downstream_closure(name) == nx.descendants(oracle, name)
            assert graph.upstream_closure(name) == nx.ancestors(oracle, name)
            assert name in graph and graph.has_service(name)
        assert len(graph) == oracle.number_of_nodes()
        assert repr(graph) == (
            f"<ApplicationGraph services={oracle.number_of_nodes()}"
            f" edges={oracle.number_of_edges()}>"
        )

    @given(operations=_operations, group_a=st.sets(_names), group_b=st.sets(_names))
    @settings(max_examples=300)
    def test_edges_across(self, operations, group_a, group_b):
        graph, oracle = build_both(operations)
        if group_a & group_b:
            with pytest.raises(RecipeError, match="overlap"):
                graph.edges_across(group_a, group_b)
        elif not (group_a | group_b) <= set(oracle.nodes):
            with pytest.raises(RecipeError, match="unknown service"):
                graph.edges_across(group_a, group_b)
        else:
            assert graph.edges_across(group_a, group_b) == [
                (caller, callee)
                for caller, callee in oracle.edges
                if (caller in group_a and callee in group_b)
                or (caller in group_b and callee in group_a)
            ]

    @given(operations=_operations)
    def test_unknown_service_errors(self, operations):
        graph, _ = build_both(operations)
        assert "ghost" not in graph and not graph.has_service("ghost")
        for query in (
            graph.dependents,
            graph.dependencies,
            graph.downstream_closure,
            graph.upstream_closure,
        ):
            with pytest.raises(RecipeError, match="unknown service 'ghost'"):
                query("ghost")
        with pytest.raises(RecipeError, match="ghost"):
            graph.validate_services([*graph.services(), "ghost"])
        graph.validate_services(graph.services())

    @given(operations=_operations)
    def test_discovered_graph_topology(self, operations):
        """A discovered graph touched edge by edge answers as the
        oracle over the services those edges name."""
        _, oracle = build_both(operations)
        discovered = DependencyGraph()
        for caller, callee in oracle.edges:
            discovered.edge(caller, callee).calls += 1
        topology = discovered.topology
        assert sorted(topology.edges()) == sorted(oracle.edges)
        assert sorted(topology.services()) == sorted(n for n in oracle.nodes if oracle.degree(n))
        for name in topology.services():
            assert sorted(topology.dependents(name)) == sorted(oracle.predecessors(name))
            assert sorted(topology.dependencies(name)) == sorted(oracle.successors(name))
            assert topology.upstream_closure(name) == nx.ancestors(oracle, name)
            assert topology.downstream_closure(name) == nx.descendants(oracle, name)

    @given(operations=_operations)
    def test_to_networkx_is_an_equal_independent_copy(self, operations):
        graph, oracle = build_both(operations)
        exported = graph.to_networkx()
        assert list(exported.nodes) == list(oracle.nodes)
        assert list(exported.edges) == list(oracle.edges)
        exported.add_edge("a", "extra")
        assert "extra" not in graph
        assert graph.edges() == list(oracle.edges)


def test_closure_excludes_the_start_even_on_a_cycle():
    graph = ApplicationGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    assert graph.downstream_closure("a") == {"b", "c"}
    assert graph.upstream_closure("a") == {"b", "c"}

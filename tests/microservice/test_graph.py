"""Unit tests for the logical application graph."""

import pytest

from repro.errors import RecipeError
from repro.microservice import ApplicationGraph


@pytest.fixture
def diamond():
    #      web
    #     /   \
    #  search  activity
    #     \   /
    #      db
    return ApplicationGraph.from_edges(
        [("web", "search"), ("web", "activity"), ("search", "db"), ("activity", "db")]
    )


class TestConstruction:
    def test_from_edges(self, diamond):
        assert set(diamond.services()) == {"web", "search", "activity", "db"}
        assert len(diamond) == 4

    def test_add_service_idempotent(self):
        graph = ApplicationGraph()
        graph.add_service("a")
        graph.add_service("a")
        assert graph.services() == ["a"]

    def test_empty_name_rejected(self):
        with pytest.raises(RecipeError):
            ApplicationGraph().add_service("")

    def test_self_dependency_rejected(self):
        with pytest.raises(RecipeError):
            ApplicationGraph().add_dependency("a", "a")

    def test_contains(self, diamond):
        assert "web" in diamond
        assert "ghost" not in diamond
        assert 42 not in diamond


class TestQueries:
    def test_dependents(self, diamond):
        assert sorted(diamond.dependents("db")) == ["activity", "search"]
        assert diamond.dependents("web") == []

    def test_dependencies(self, diamond):
        assert sorted(diamond.dependencies("web")) == ["activity", "search"]
        assert diamond.dependencies("db") == []

    def test_unknown_service_raises(self, diamond):
        with pytest.raises(RecipeError):
            diamond.dependents("ghost")

    def test_downstream_closure(self, diamond):
        assert diamond.downstream_closure("web") == {"search", "activity", "db"}
        assert diamond.downstream_closure("db") == set()

    def test_upstream_closure(self, diamond):
        assert diamond.upstream_closure("db") == {"search", "activity", "web"}

    def test_entry_and_leaf_services(self, diamond):
        assert diamond.entry_services() == ["web"]
        assert diamond.leaf_services() == ["db"]

    def test_validate_services(self, diamond):
        diamond.validate_services(["web", "db"])
        with pytest.raises(RecipeError, match="ghost"):
            diamond.validate_services(["web", "ghost"])


class TestCuts:
    def test_edges_across_cut(self, diamond):
        crossing = diamond.edges_across(["web", "search", "activity"], ["db"])
        assert sorted(crossing) == [("activity", "db"), ("search", "db")]

    def test_edges_across_counts_both_directions(self):
        graph = ApplicationGraph.from_edges([("a", "b"), ("b", "a_peer")])
        graph.add_service("a_peer")
        crossing = graph.edges_across(["a", "a_peer"], ["b"])
        assert sorted(crossing) == [("a", "b"), ("b", "a_peer")]

    def test_overlapping_groups_rejected(self, diamond):
        with pytest.raises(RecipeError, match="overlap"):
            diamond.edges_across(["web", "db"], ["db"])

    def test_unknown_member_rejected(self, diamond):
        with pytest.raises(RecipeError):
            diamond.edges_across(["web"], ["ghost"])

    def test_to_networkx_is_a_copy(self, diamond):
        pytest.importorskip("networkx")
        nx_graph = diamond.to_networkx()
        nx_graph.add_node("extra")
        assert "extra" not in diamond

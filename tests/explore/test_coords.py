"""Coordinate enumeration: determinism, structure, serialization."""

import pytest

from repro.apps.outages import SEEDED_BUG_SUITE
from repro.errors import ExploreError
from repro.explore import Coordinate, FAULT_PRIMITIVES, discover_space, fault_primitives

from tests.conftest import deploying_on


class TestEnumerationDeterminism:
    def test_same_seed_identical_coordinate_list(self):
        first = discover_space("deepfanout", seed=0)
        second = discover_space("deepfanout", seed=0)
        assert [c.to_dict() for c in first.coordinates] == [
            c.to_dict() for c in second.coordinates
        ]
        assert first.baseline_shapes == second.baseline_shapes
        assert first.edges == second.edges

    def test_deterministic_across_scheduler_lanes(self):
        default = discover_space("retrystorm", seed=0)
        with deploying_on("heap"):
            heap = discover_space("retrystorm", seed=0)
        assert [c.to_dict() for c in default.coordinates] == [
            c.to_dict() for c in heap.coordinates
        ]
        assert default.baseline_shapes == heap.baseline_shapes


class TestSpaceStructure:
    def test_deepfanout_discovers_every_static_edge(self):
        space = discover_space("deepfanout", seed=0)
        assert set(space.edges) == {
            ("user", "gateway"),
            ("gateway", "catalog"),
            ("gateway", "search"),
            ("catalog", "inventory"),
            ("catalog", "pricing"),
            ("pricing", "quotes"),
        }

    def test_one_sweep_per_edge_per_primitive(self):
        space = discover_space("deepfanout", seed=0)
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        primitives = fault_primitives(manifest)
        assert len(space.sweeps) == len(space.edges) * len(primitives)
        keys = {c.key() for c in space.sweeps}
        assert len(keys) == len(space.sweeps)
        assert all(c.mode == "sweep" and c.request_id == "test-*" for c in space.sweeps)

    def test_manifest_fault_kinds_pick_the_swept_primitives(self):
        # The seed apps keep the original four-primitive vocabulary;
        # production-scale apps opt into gray + exhaust as well.
        four = {name for name, _p in fault_primitives(SEEDED_BUG_SUITE["deepfanout"])}
        assert four == {"abort", "reset", "delay", "delay_short"}
        six = {name for name, _p in fault_primitives(SEEDED_BUG_SUITE["socialnetwork"])}
        assert six == set(FAULT_PRIMITIVES)
        space = discover_space("socialnetwork", seed=0)
        assert {c.fault for c in space.sweeps} == set(FAULT_PRIMITIVES)

    def test_singles_carry_full_call_paths(self):
        space = discover_space("deepfanout", seed=0)
        paths = {c.path for c in space.singles}
        assert ("user", "gateway", "catalog", "pricing", "quotes") in paths
        assert all(c.request_id == "test-1" for c in space.singles)

    def test_blast_radius_of_root_edge_covers_whole_tree(self):
        space = discover_space("deepfanout", seed=0)
        _path, subtree = space.edges[("user", "gateway")]
        # gateway + catalog + inventory + pricing + quotes + search
        assert subtree == 6

    def test_fault_primitives_resolve_manifest_delay(self):
        manifest = SEEDED_BUG_SUITE["deepfanout"]
        params = dict(fault_primitives(manifest))
        assert params["delay"] == {"interval": manifest.delay_interval}
        assert params["abort"] == {"error": 503}
        assert params["reset"] == {"error": -1}


class TestCoordinateModel:
    def test_serialization_round_trip(self):
        space = discover_space("stuckbreaker", seed=0)
        for coordinate in space.coordinates:
            assert Coordinate.from_dict(coordinate.to_dict()) == coordinate

    def test_space_to_dict_is_json_shaped(self):
        import json

        space = discover_space("stuckbreaker", seed=0)
        doc = json.loads(json.dumps(space.to_dict()))
        assert doc["app"] == "stuckbreaker"
        assert len(doc["sweeps"]) == len(space.sweeps)

    def test_validation_rejects_bad_mode_fault_path_ordinal(self):
        good = dict(
            app="a", entry="e", mode="sweep", path=("u", "s"), ordinal=0,
            fault="abort", request_id="test-*",
        )
        Coordinate(**good)
        with pytest.raises(ExploreError):
            Coordinate(**{**good, "mode": "everywhere"})
        with pytest.raises(ExploreError):
            Coordinate(**{**good, "fault": "bitflip"})
        with pytest.raises(ExploreError):
            Coordinate(**{**good, "path": ("u",)})
        with pytest.raises(ExploreError):
            Coordinate(**{**good, "ordinal": -1})

    def test_from_dict_missing_field_raises(self):
        with pytest.raises(ExploreError):
            Coordinate.from_dict({"app": "a"})

    def test_unknown_app_raises(self):
        with pytest.raises(ExploreError):
            discover_space("no-such-app")

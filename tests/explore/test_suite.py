"""Recipe suites: exploration findings round-trip into campaigns."""

import copy
import json

import pytest

from repro import artifact
from repro.apps.outages import SEEDED_BUG_SUITE
from repro.campaign import RecipeExecutor, plan_campaign
from repro.errors import ArtifactError
from repro.explore import (
    dump_recipe_suite,
    export_recipe_suite,
    load_recipe_suite,
    read_recipe_suite,
    run_explore,
)

APP = "stuckbreaker"


@pytest.fixture(scope="module")
def explore_result():
    # whatif surfaces the stuckbreaker bug on its first execution, so
    # this module's fixture is one discovery run plus one fault run.
    return run_explore(APP, budget=24, seed=0, strategy="whatif",
                       stop_when_found=True)


@pytest.fixture(scope="module")
def suite_doc(explore_result):
    return export_recipe_suite(explore_result)


class TestExport:
    def test_one_entry_per_finding_coordinate(self, explore_result, suite_doc):
        suite, *entries = suite_doc
        assert suite == {"app": APP, "strategy": "whatif", "seed": 0}
        keys = [entry["key"] for entry in entries]
        assert keys == sorted({f.coordinate for f in explore_result.findings},
                              key=keys.index)
        entry = entries[0]
        assert entry["bug_ids"] == ["stuckbreaker/never-closes"]
        assert entry["coordinate"]["app"] == APP

    def test_document_is_json_serializable(self, suite_doc):
        assert json.loads(json.dumps(suite_doc)) == suite_doc


class TestRoundTrip:
    def test_dump_and_read(self, explore_result, suite_doc, tmp_path):
        path = tmp_path / "recipes.json"
        dump_recipe_suite(explore_result, str(path))
        assert path.read_text().startswith('{"kind":"recipe-suite","version":2}\n')
        app, recipes = read_recipe_suite(str(path))
        assert app == APP
        assert len(recipes) == len(suite_doc) - 1
        assert all(r.name.startswith("explore/") for r in recipes)

    def test_campaign_replays_the_finding(self, suite_doc):
        """The exported coordinate, loaded as a campaign recipe and
        executed through the campaign machinery, reproduces the
        conclusive failure that recorded the bug."""
        manifest = SEEDED_BUG_SUITE[APP]
        app, recipes = load_recipe_suite(suite_doc)
        plan = plan_campaign(
            manifest.builder,
            extra_recipes=recipes,
            requests=manifest.requests,
            think_time=manifest.think_time,
        )
        entry = next(e for e in plan.entries if e.name.startswith("explore/"))
        outcome = RecipeExecutor(manifest.builder).execute(entry)
        assert outcome.status == "fail"
        failed = {
            check.name
            for check in outcome.checks
            if not check.passed and not check.inconclusive
        }
        assert manifest.bugs_found((name, False, False) for name in failed)


class TestLoadValidation:
    def test_rejects_non_suite_documents(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        artifact.write(path, "campaign", [{"app": APP}])
        with pytest.raises(ArtifactError, match="line 1: 'campaign' version 2, expected 'recipe-suite'"):
            read_recipe_suite(str(path))

    def test_rejects_unknown_versions(self, suite_doc, tmp_path):
        path = tmp_path / "recipes.json"
        artifact.write(path, "recipe-suite", suite_doc)
        path.write_text(path.read_text().replace('"version":2', '"version":99', 1))
        with pytest.raises(ArtifactError, match="line 1: 'recipe-suite' version 99, expected 'recipe-suite' version 2"):
            read_recipe_suite(str(path))

    def test_rejects_unknown_apps(self, suite_doc):
        records = [dict(suite_doc[0], app="no-such-app"), *suite_doc[1:]]
        with pytest.raises(ArtifactError, match="line 2: recipe suite targets unknown app"):
            load_recipe_suite(records)

    def test_rejects_cross_app_coordinates(self, suite_doc):
        records = copy.deepcopy(suite_doc)
        records[0]["app"] = "deepfanout"
        with pytest.raises(ArtifactError, match="line 3: .*targets app"):
            load_recipe_suite(records)

    def test_read_missing_file_is_loud(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing.json: cannot read"):
            read_recipe_suite(str(tmp_path / "missing.json"))

    def test_read_malformed_json_is_loud(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="broken.json: line 1: no final newline"):
            read_recipe_suite(str(path))

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ({"key": "k"}, "missing field 'coordinate'"),
            ({"coordinate": {"app": APP}}, "coordinate dict missing field"),
            ({"coordinate": "not-a-dict"}, "string indices"),
        ],
        ids=["no-coordinate", "coordinate-fields", "coordinate-type"],
    )
    def test_rejects_undecodable_entries(self, suite_doc, entry, problem):
        with pytest.raises(ArtifactError, match=f"line 3: .*{problem}"):
            load_recipe_suite([suite_doc[0], entry], "suite.json")

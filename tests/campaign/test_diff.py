"""Tests for campaign-to-campaign regression diffing."""

import sys

import pytest

from repro.campaign import CampaignResult, RecipeOutcome, diff_campaigns
from repro.errors import CampaignError


def outcome(name, status, classification=None, latencies=()):
    return RecipeOutcome(
        index=0,
        name=name,
        pattern="overload",
        service="db",
        seed=0,
        status=status,
        classification=classification,
        latencies=list(latencies),
    )


def result(name, outcomes, app="app"):
    return CampaignResult(name=name, app=app, seed=0, workers=1, outcomes=outcomes)


class TestStatusChanges:
    def test_regressions_fixes_and_other_changes(self):
        baseline = result(
            "base",
            [
                outcome("r1", "pass"),
                outcome("r2", "fail"),
                outcome("r3", "inconclusive"),
                outcome("r4", "pass"),
            ],
        )
        candidate = result(
            "cand",
            [
                outcome("r1", "timeout"),  # pass -> conclusive failure
                outcome("r2", "pass"),  # conclusive failure -> pass
                outcome("r3", "pass"),  # neither: other change
                outcome("r4", "pass"),  # unchanged
            ],
        )
        diff = diff_campaigns(baseline, candidate)
        assert [str(c) for c in diff.regressions] == ["r1: pass -> timeout"]
        assert [c.name for c in diff.fixes] == ["r2"]
        assert [c.name for c in diff.other_changes] == ["r3"]
        assert diff.has_regressions
        assert not diff.clean

    def test_added_and_removed_recipes(self):
        diff = diff_campaigns(
            result("base", [outcome("old", "pass"), outcome("both", "pass")]),
            result("cand", [outcome("both", "pass"), outcome("new", "pass")]),
        )
        assert diff.added == ["new"]
        assert diff.removed == ["old"]

    def test_newly_flaky(self):
        diff = diff_campaigns(
            result("base", [outcome("r", "fail", classification="broken")]),
            result("cand", [outcome("r", "fail", classification="flaky")]),
        )
        assert diff.newly_flaky == ["r"]
        assert not diff.regressions  # status itself did not change

    def test_identical_campaigns_are_clean(self):
        baseline = result("base", [outcome("r", "pass", latencies=[0.1, 0.2])])
        candidate = result("cand", [outcome("r", "pass", latencies=[0.1, 0.2])])
        diff = diff_campaigns(baseline, candidate)
        assert diff.clean
        assert not diff.has_regressions
        assert "no differences" in diff.text()

    def test_campaigns_of_two_apps_are_refused(self):
        baseline = result("base", [outcome("r", "pass")], app="twotier")
        candidate = result("cand", [outcome("r", "pass")], app="tree3")
        with pytest.raises(CampaignError, match="'twotier'.*'tree3'"):
            diff_campaigns(baseline, candidate)


class TestLatencyComparison:
    def test_pooled_latencies_go_through_ks(self):
        pytest.importorskip("scipy")
        baseline = result("base", [outcome("r", "pass", latencies=[0.1] * 30)])
        candidate = result("cand", [outcome("r", "pass", latencies=[5.0] * 30)])
        diff = diff_campaigns(baseline, candidate)
        assert diff.latency is not None
        assert not diff.latency.same_distribution()
        assert "distribution shifted" in diff.text()

    def test_without_scipy_the_status_half_is_still_complete(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # import raises
        diff = diff_campaigns(
            result("base", [outcome("r", "pass", latencies=[0.1] * 30)]),
            result("cand", [outcome("r", "fail", latencies=[5.0] * 30)]),
        )
        assert [str(c) for c in diff.regressions] == ["r: pass -> fail"]
        assert diff.latency is None
        assert "repro[stats]" in diff.latency_error
        assert "latency: not compared" in diff.text()
        assert diff.to_dict()["latency_error"] == diff.latency_error

    def test_no_samples_no_comparison(self):
        diff = diff_campaigns(
            result("base", [outcome("r", "error")]),
            result("cand", [outcome("r", "error")]),
        )
        assert diff.latency is None
        assert diff.latency_error is None


class TestReporting:
    def test_text_lists_each_change(self):
        diff = diff_campaigns(
            result("base", [outcome("r1", "pass")]),
            result("cand", [outcome("r1", "fail"), outcome("r2", "pass")]),
        )
        text = diff.text()
        assert "campaign diff: 'base' -> 'cand'" in text
        assert "r1: pass -> fail" in text
        assert "recipes added: r2" in text

    def test_to_dict(self):
        doc = diff_campaigns(
            result("base", [outcome("r1", "pass")]),
            result("cand", [outcome("r1", "fail")]),
        ).to_dict()
        assert doc["has_regressions"] is True
        assert doc["regressions"] == [
            {"name": "r1", "baseline": "pass", "candidate": "fail"}
        ]

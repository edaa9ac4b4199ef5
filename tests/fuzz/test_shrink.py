"""Shrinking failing cases to minimal repros.

The stack currently has no real differential failures (the corpus
sweep asserts exactly that), so these tests inject synthetic bugs by
monkeypatching the shrinker's ``run_case`` with predicates that fail
on chosen case features — the standard way to test a minimizer
independently of the defect that feeds it.
"""

import pytest

from repro.fuzz import FuzzGenerator
from repro.fuzz.differential import CaseReport
import importlib

shrink_mod = importlib.import_module("repro.fuzz.shrink")


def fake_battery(monkeypatch, fails_when):
    """Replace the shrinker's battery with a feature predicate."""

    def run(case):
        report = CaseReport(case=case, digest="synthetic")
        if fails_when(case):
            report.mismatches.append(
                {"kind": "oracle/trace", "detail": "synthetic bug"}
            )
        return report

    monkeypatch.setattr(shrink_mod, "run_case", run)


def corpus_case(predicate, *, seed=7, want_extra=True):
    """First generated case matching ``predicate`` (plus some bulk)."""
    for case in FuzzGenerator(seed, app_fraction=0.0).generate(200):
        if not predicate(case):
            continue
        if want_extra and (len(case.scenarios) < 2 or len(case.checks) < 2):
            continue
        return case
    raise AssertionError("no suitable corpus case found")


def has_abort(case):
    return any(spec["kind"] == "abort" for spec in case.scenarios)


class TestShrink:
    def test_minimizes_to_the_failing_feature(self, monkeypatch):
        fake_battery(monkeypatch, has_abort)
        case = corpus_case(has_abort)
        result = shrink_mod.shrink(case)
        assert [s["kind"] for s in result.case.scenarios] == ["abort"]
        assert result.case.checks == []
        assert result.case.workload.requests == 1
        assert result.case.workload.think_time == 0.0
        assert result.report.failed
        assert result.steps

    def test_prunes_unreferenced_services(self, monkeypatch):
        fake_battery(monkeypatch, has_abort)
        case = corpus_case(
            lambda c: has_abort(c)
            and c.topology.kind == "dag"
            and len(c.topology.services) >= 4
        )
        result = shrink_mod.shrink(case)
        # Only the entry and services the surviving scenario names remain.
        survivors = set(result.case.topology.services)
        referenced = shrink_mod._referenced_names(result.case)
        assert survivors <= referenced | {result.case.topology.entry}

    def test_passing_case_is_rejected(self, monkeypatch):
        fake_battery(monkeypatch, lambda case: False)
        case = FuzzGenerator(7, app_fraction=0.0).case(0)
        with pytest.raises(ValueError):
            shrink_mod.shrink(case)

    def test_evaluation_budget_is_respected(self, monkeypatch):
        fake_battery(monkeypatch, has_abort)
        case = corpus_case(has_abort)
        result = shrink_mod.shrink(case, max_evaluations=3)
        assert result.evaluations <= 3

    def test_minimal_case_still_replays(self, monkeypatch):
        fake_battery(monkeypatch, has_abort)
        case = corpus_case(has_abort)
        minimal = shrink_mod.shrink(case).case
        # The spec layer keeps the minimal case valid and executable;
        # run it through the *real* battery (clean stack -> no mismatch).
        monkeypatch.undo()
        from repro.fuzz import run_case

        real = run_case(minimal)
        assert real.digest
        assert not real.failed

"""Fleet-level fuzz runs, repro artifacts, and bit-for-bit replay."""

import json

import pytest

from repro import artifact
from repro.errors import ArtifactError
from repro.fuzz import (
    FuzzGenerator,
    load_artifact,
    replay_artifact,
    run_case,
    run_fuzz,
    write_artifact,
)
from repro.fuzz.differential import CaseReport
import repro.fuzz.harness as harness_mod

CASES = 12


class TestRunFuzz:
    def test_clean_corpus_passes(self):
        report = run_fuzz(31, CASES)
        assert report.passed
        assert report.cases == CASES
        assert report.oracle_checked > 0
        assert report.metamorphic_counts["matcher-strategy"] == CASES
        assert report.metamorphic_counts["shuffle"] == CASES

    def test_worker_count_independence(self):
        serial = run_fuzz(31, CASES, workers=1)
        fleet = run_fuzz(31, CASES, workers=4)
        assert serial.to_dict()["failures"] == fleet.to_dict()["failures"]
        assert serial.oracle_checked == fleet.oracle_checked
        assert serial.metamorphic_counts == fleet.metamorphic_counts

    def test_process_backend_matches_serial(self):
        serial = run_fuzz(31, 6, workers=1)
        procs = run_fuzz(31, 6, workers=2, backend="processes")
        assert serial.to_dict()["failures"] == procs.to_dict()["failures"]
        assert serial.oracle_checked == procs.oracle_checked
        assert serial.metamorphic_counts == procs.metamorphic_counts

    def test_crashing_case_becomes_harness_error(self, monkeypatch, tmp_path):
        # A raise reaches the fleet's on_crash, like a dead worker.
        real_run = harness_mod.run_case

        def exploding(case):
            if case.case_id.endswith("-2"):
                raise RuntimeError("boom")
            return real_run(case)

        monkeypatch.setattr(harness_mod, "run_case", exploding)
        report = run_fuzz(31, 4, artifacts_dir=str(tmp_path))
        assert not report.passed
        (failure,) = report.failures
        assert failure["mismatch_kinds"] == ["harness/crash"]
        # Harness failures are not shrunk but still produce an artifact.
        assert failure["shrink_steps"] == []
        data = load_artifact(failure["artifact"])
        assert data["verdict"]["mismatches"][0]["detail"] == (
            "fleet job crashed: RuntimeError: boom"
        )

    def test_failures_are_shrunk_and_archived(self, monkeypatch, tmp_path):
        real_run = harness_mod.run_case

        def buggy(case):
            report = real_run(case)
            if any(s["kind"] == "delay" for s in case.scenarios):
                report.mismatches.append(
                    {"kind": "oracle/trace", "detail": "synthetic"}
                )
            return report

        monkeypatch.setattr(harness_mod, "run_case", buggy)
        import importlib

        shrink_mod = importlib.import_module("repro.fuzz.shrink")
        monkeypatch.setattr(shrink_mod, "run_case", buggy)
        report = run_fuzz(31, CASES, artifacts_dir=str(tmp_path))
        assert not report.passed
        for failure in report.failures:
            assert failure["artifact"] is not None
            data = load_artifact(failure["artifact"])
            assert data["verdict"]["mismatch_kinds"] == ["oracle/trace"]
            minimal = data["case"]
            assert any(s["kind"] == "delay" for s in minimal["scenarios"])


class TestArtifacts:
    def artifact_for(self, tmp_path, seed=5, index=3):
        case = FuzzGenerator(seed).case(index)
        report = run_case(case)
        path = tmp_path / f"{case.case_id}.json"
        write_artifact(str(path), report, shrink_steps=["none"])
        return path, report

    def test_artifact_is_valid_json(self, tmp_path):
        path, report = self.artifact_for(tmp_path)
        header, data, trailer = map(json.loads, path.read_text().splitlines())
        assert header == {"kind": "fuzz-artifact", "version": 2}
        assert trailer["count"] == 1
        assert data == load_artifact(str(path))
        assert data["verdict"]["digest"] == report.digest
        assert data["shrink_steps"] == ["none"]

    def test_replay_reproduces_bit_for_bit(self, tmp_path):
        path, report = self.artifact_for(tmp_path)
        result = replay_artifact(str(path))
        assert result.reproduced
        assert result.report.digest == report.digest

    def test_replay_detects_digest_drift(self, tmp_path):
        path, _report = self.artifact_for(tmp_path)
        (data,) = artifact.read(path, "fuzz-artifact")
        data["verdict"]["digest"] = "0" * 64
        artifact.write(path, "fuzz-artifact", [data])
        result = replay_artifact(str(path))
        assert not result.reproduced

    def test_version_gate(self, tmp_path):
        path, _report = self.artifact_for(tmp_path)
        path.write_text(path.read_text().replace('"version":2', '"version":99', 1))
        with pytest.raises(ArtifactError, match="line 1: 'fuzz-artifact' version 99, expected 'fuzz-artifact' version 2"):
            load_artifact(str(path))
        # The version-1 format (one pretty-printed document) is refused too.
        path.write_text(json.dumps({"version": 1, "case": {}}, indent=2) + "\n")
        with pytest.raises(ArtifactError, match="line 1: not JSON"):
            load_artifact(str(path))

    @pytest.mark.parametrize(
        "record, problem",
        [
            ({"verdict": {}}, "missing field 'case'"),
            ({"case": {"case_id": "c"}, "verdict": {}}, "missing field 'seed'"),
            ({"case": None, "verdict": {}}, "not subscriptable"),
        ],
        ids=["no-case", "case-fields", "case-type"],
    )
    def test_undecodable_record_is_refused(self, tmp_path, record, problem):
        path = tmp_path / "bad.json"
        artifact.write(path, "fuzz-artifact", [record])
        with pytest.raises(ArtifactError, match=f"bad.json: line 2: .*{problem}"):
            load_artifact(str(path))

"""Tests for the command-line interface."""

import json
import os
import pickle
import re
import sys

import pytest

from repro import artifact
from repro.campaign import load_jsonl
from repro.apps import APPS
from repro.cli import _per_app_path, main


def refused(capsys, argv):
    """Run ``argv``, which must be refused with exit 2; its stderr line.
    What it printed to stdout stays readable from ``capsys``."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    sys.stdout.write(captured.out)
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: "), lines
    return lines[0]


class TestApps:
    def test_lists_all_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in APPS:
            assert name in out

    def test_json_catalog(self, capsys):
        assert main(["apps", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in doc["apps"]}
        assert set(by_name) == set(APPS)
        assert by_name["socialnetwork"]["num_services"] == 28
        assert by_name["hotelreservation"]["num_services"] == 20
        assert by_name["socialnetwork"]["entry_services"] == ["nginx"]
        for entry in doc["apps"]:
            assert entry["num_services"] == len(entry["services"])
            assert entry["num_edges"] >= 1
            assert entry["entry_services"]

    def test_registry_pickles_by_reference_and_resolves_builders(self):
        assert pickle.loads(pickle.dumps(APPS)) is APPS
        from repro.apps.trees import build_tree3_app

        assert APPS["tree3"] is build_tree3_app
        assert "tree3" in APPS and "nope" not in APPS


class TestGraph:
    def test_prints_edges(self, capsys):
        assert main(["graph", "twotier"]) == 0
        out = capsys.readouterr().out
        assert "ServiceA -> ServiceB" in out
        assert "entry services: ServiceA" in out

    def test_unknown_app_exits(self, capsys):
        assert "unknown app 'nope'" in refused(capsys, ["graph", "nope"])

    @pytest.mark.parametrize("command", ["recipes", "metrics"])
    def test_other_commands_refuse_an_unknown_app(self, command, capsys):
        assert "unknown app 'nope'" in refused(capsys, [command, "nope"])


class TestRecipes:
    def test_generates_for_enterprise(self, capsys):
        assert main(["recipes", "enterprise"]) == 0
        out = capsys.readouterr().out
        assert "auto/overload-servicedb" in out

    def test_json_output(self, capsys):
        assert main(["recipes", "enterprise", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["app"] == "enterprise"
        names = [recipe["name"] for recipe in doc["recipes"]]
        assert "auto/overload-servicedb" in names
        sample = doc["recipes"][0]
        assert sample["scenarios"] and sample["checks"]


class TestTest:
    def test_finds_issue_in_wordpress(self, capsys):
        code = main(
            ["test", "wordpress", "--target", "elasticsearch", "--scenario", "degrade"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "ISSUES FOUND" in out
        assert "HasTimeouts(wordpress" in out

    def test_healthy_edge_passes(self, capsys):
        code = main(
            ["test", "twotier", "--target", "ServiceB", "--scenario", "overload"]
        )
        out = capsys.readouterr().out
        # The default twotier client absorbs a 25% abort / 100ms delay
        # overload within its answer budget -> no conclusive failures.
        assert code == 0
        assert "no conclusive failures" in out

    def test_retry_amplification_detected_under_degrade(self, capsys):
        code = main(
            ["test", "twotier", "--target", "ServiceB", "--scenario", "degrade"]
        )
        out = capsys.readouterr().out
        # A 2s degrade makes the 1s-timeout, 5-retry client spend ~6s
        # per call — the retry-amplification anti-pattern HasTimeouts
        # correctly flags even though each single attempt is bounded.
        assert code == 1
        assert "HasTimeouts(ServiceA" in out

    def test_unknown_target_exits(self, capsys):
        line = refused(capsys, ["test", "twotier", "--target", "ghost"])
        assert "unknown target" in line

    def test_json_output_keeps_exit_semantics(self, capsys):
        code = main(
            [
                "test",
                "twotier",
                "--target",
                "ServiceB",
                "--scenario",
                "degrade",
                "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["issues_found"] is True
        assert any(
            check["name"].startswith("HasTimeouts(ServiceA")
            and not check["passed"]
            and not check["inconclusive"]
            for check in doc["checks"]
        )

    def test_json_output_healthy_edge(self, capsys):
        code = main(
            [
                "test",
                "twotier",
                "--target",
                "ServiceB",
                "--scenario",
                "overload",
                "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["issues_found"] is False


class TestTrace:
    def test_renders_causal_tree_with_fault(self, capsys):
        code = main(
            ["trace", "tree3", "test-3", "--target", "svc-1", "--requests", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace test-3:" in out
        assert "user -> svc-0" in out
        assert "svc-0 -> svc-1" in out
        assert "*critical*" in out
        assert "fault=abort(reset)" in out
        assert "fault attribution:" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "trace",
                "tree3",
                "test-2",
                "--target",
                "svc-1",
                "--requests",
                "5",
                "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["request_id"] == "test-2"
        assert doc["span_count"] >= 2
        edges = {(s["src"], s["dst"]) for s in doc["spans"]}
        assert ("user", "svc-0") in edges
        assert doc["attributions"]

    def test_unfaulted_trace_covers_full_tree(self, capsys):
        # No --target: every request fans out over all 7 services of
        # the depth-3 tree, so one trace holds all 6 internal edges.
        code = main(["trace", "tree3", "test-1", "--requests", "2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["span_count"] == 15
        assert doc["failed"] is False
        assert doc["attributions"] == []

    def test_unknown_request_id_exits(self, capsys):
        line = refused(capsys, ["trace", "tree3", "nope-99", "--requests", "2"])
        assert "no records for request ID" in line


class TestMetrics:
    def test_prometheus_output(self, capsys):
        code = main(
            ["metrics", "tree3", "--target", "svc-1", "--requests", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE gremlin_requests_total counter" in out
        assert 'gremlin_requests_total{dst="svc-0",src="user"} 5' in out
        assert (
            'gremlin_faults_injected_total{dst="svc-1",fault="abort(reset)",src="svc-0"}'
            in out
        )
        assert "# TYPE gremlin_request_latency_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_json_output(self, capsys):
        code = main(
            ["metrics", "tree3", "--requests", "3", "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["counters"]['gremlin_requests_total{dst="svc-0",src="user"}'] == 3
        series = 'gremlin_request_latency_seconds{dst="svc-0",src="user"}'
        assert doc["histograms"][series]["count"] == 3


class TestCampaignSmoke:
    def test_smoke_exercises_the_fleet(self, capsys):
        code = main(["campaign", "smoke", "wordpress", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0, out
        # One status line per capped recipe plus the summary.
        assert out.count("] auto/") == 6
        assert "recipes" in out.splitlines()[-1]

    def test_smoke_json(self, capsys):
        code = main(["campaign", "smoke", "twotier", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["app"] == "twotier"
        assert len(doc["outcomes"]) == 2
        assert all(o["status"] not in ("error", "timeout") for o in doc["outcomes"])


class TestCampaignRun:
    def test_run_prints_scorecard_and_dumps(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        code = main(
            [
                "campaign",
                "run",
                "twotier",
                "--requests",
                "5",
                "--workers",
                "2",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert "resilience scorecard" in out
        assert "TOTAL" in out
        result = load_jsonl(out_path)
        assert len(result.outcomes) == 2
        assert code == (0 if result.passed else 1)

    def test_run_json(self, capsys):
        main(
            [
                "campaign",
                "run",
                "twotier",
                "--requests",
                "5",
                "--max-recipes",
                "1",
                "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["skipped"] == 0
        assert len(doc["outcomes"]) == 1

    def test_metrics_out_writes_merged_snapshot(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        main(
            [
                "campaign",
                "run",
                "twotier",
                "--requests",
                "5",
                "--max-recipes",
                "2",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert f"merged metrics written to {metrics_path}" in out
        doc = json.loads(metrics_path.read_text())
        assert set(doc) == {"counters", "gauges", "histograms"}
        # Both recipes drove 5 requests into ServiceA; the merged
        # snapshot sums the per-recipe registries.
        assert doc["counters"]['gremlin_requests_total{dst="ServiceA",src="user"}'] == 10

    def test_unknown_app_exits(self, capsys):
        assert "unknown app" in refused(capsys, ["campaign", "run", "nope"])

    def test_removed_result_transport_flag_is_rejected(self, capsys):
        # The shm lane and its selector are gone; a stale invocation must
        # fail loudly, not be silently accepted.
        with pytest.raises(SystemExit) as err:
            main(["campaign", "run", "twotier", "--result-transport", "shm"])
        assert err.value.code == 2
        assert "unrecognized arguments: --result-transport" in capsys.readouterr().err


class TestCampaignDiff:
    def dump(self, tmp_path, name, seed):
        path = tmp_path / f"{name}.jsonl"
        main(
            [
                "campaign",
                "run",
                "twotier",
                "--requests",
                "5",
                "--seed",
                str(seed),
                "--out",
                str(path),
            ]
        )
        return path

    def test_self_diff_is_clean(self, capsys, tmp_path):
        pytest.importorskip("scipy")  # the latency half is a KS test
        baseline = self.dump(tmp_path, "baseline", seed=0)
        candidate = self.dump(tmp_path, "candidate", seed=0)
        capsys.readouterr()
        code = main(["campaign", "diff", str(baseline), str(candidate)])
        out = capsys.readouterr().out
        assert code == 0
        assert "regressions: 0" in out

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")])

    def test_without_scipy_status_half_prints_then_clean_exit(
        self, capsys, tmp_path, monkeypatch
    ):
        baseline = self.dump(tmp_path, "baseline", seed=0)
        capsys.readouterr()
        monkeypatch.setitem(sys.modules, "scipy", None)  # import raises
        line = refused(capsys, ["campaign", "diff", str(baseline), str(baseline)])
        assert re.search(r"analysis error: .*repro\[stats\]", line)
        out = capsys.readouterr().out
        assert "regressions: 0" in out
        assert "latency: not compared" in out


class TestFuzz:
    def test_run_clean_corpus(self, capsys):
        code = main(["fuzz", "run", "--seed", "5", "--cases", "8", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8 cases, 0 failing" in out

    def test_run_json_output(self, capsys):
        code = main(["fuzz", "run", "--seed", "5", "--cases", "4", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["cases"] == 4
        assert doc["metamorphic_counts"]["matcher-strategy"] == 4

    def test_replay_round_trip(self, capsys, tmp_path):
        from repro.fuzz import FuzzGenerator, run_case, write_artifact

        case = FuzzGenerator(5).case(1)
        artifact = tmp_path / "case.json"
        write_artifact(str(artifact), run_case(case))
        code = main(["fuzz", "replay", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out
        code = main(["fuzz", "replay", str(artifact), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["reproduced"] is True
        assert doc["expected_digest"] == doc["observed_digest"]

    def test_replay_missing_artifact_exits(self, capsys, tmp_path):
        line = refused(capsys, ["fuzz", "replay", str(tmp_path / "missing.json")])
        assert "missing.json: cannot read" in line

    def test_shrink_passing_artifact_reports_nothing_to_do(self, capsys, tmp_path):
        from repro.fuzz import FuzzGenerator, run_case, write_artifact

        case = FuzzGenerator(5).case(2)
        artifact = tmp_path / "case.json"
        write_artifact(str(artifact), run_case(case))
        code = main(["fuzz", "shrink", str(artifact)])
        out = capsys.readouterr().out
        assert code == 1
        assert "nothing to shrink" in out


class TestFuzzExplore:
    def test_explore_finds_the_planted_bug(self, capsys, tmp_path):
        coverage = tmp_path / "coverage.json"
        code = main(
            [
                "fuzz", "explore", "stuckbreaker",
                "--budget", "40", "--seed", "0",
                "--coverage-out", str(coverage),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 planted bugs found" in out
        doc = json.loads(coverage.read_text())
        assert doc["all_bugs_found"] is True
        assert doc["apps"][0]["bugs_found"] == ["stuckbreaker/never-closes"]

    def test_explore_json_output(self, capsys):
        code = main(
            ["fuzz", "explore", "stuckbreaker", "--budget", "40", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["strategy"] == "prioritized"
        assert doc["apps"][0]["executed"] <= 40

    def test_explore_unknown_app_exits_cleanly_listing_names(self, capsys):
        message = refused(capsys, ["fuzz", "explore", "no-such-app"])
        assert "no-such-app" in message
        assert "socialnetwork" in message and "hotelreservation" in message
        assert "stuckbreaker" in message

    def test_campaign_run_unknown_app_exits_cleanly_listing_names(self, capsys):
        message = refused(capsys, ["campaign", "run", "no-such-app"])
        assert "no-such-app" in message
        assert "socialnetwork" in message and "hotelreservation" in message


#: Every subcommand that drives a fleet, as an argv prefix.
FLEET_COMMANDS = [
    ["campaign", "run", "twotier"],
    ["campaign", "smoke", "twotier"],
    ["fuzz", "run"],
    ["fuzz", "explore", "deepfanout", "--budget", "1"],
]


class TestFleetFlags:
    """``--workers`` / ``--backend`` are one definition shared by every
    fleet-driving subcommand, validated by argparse before anything
    runs; the knobs removed with batching and sharding fail loudly."""

    @pytest.mark.parametrize("command", FLEET_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("workers", ["0", "abc"])
    def test_bad_workers_is_a_usage_error(self, command, workers, capsys, monkeypatch):
        import repro.explore

        def no_run(*args, **kwargs):
            raise AssertionError("a simulation ran before the flags were checked")

        # `fuzz explore` used to pay for the discovery run first and
        # then die with a CampaignError traceback.
        monkeypatch.setattr(repro.explore, "run_explore", no_run)
        with pytest.raises(SystemExit) as err:
            main(command + ["--workers", workers])
        assert err.value.code == 2
        assert "argument --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", FLEET_COMMANDS, ids=" ".join)
    def test_unknown_backend_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main(command + ["--backend", "greenlets"])
        assert err.value.code == 2
        assert "argument --backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, stale",
        [(command, ["--batch-size", "4"]) for command in FLEET_COMMANDS]
        + [(FLEET_COMMANDS[0], ["--shards", "2"])],
        ids=lambda value: " ".join(value),
    )
    def test_removed_batch_and_shard_flags_are_rejected(self, command, stale, capsys):
        with pytest.raises(SystemExit) as err:
            main(command + stale)
        assert err.value.code == 2
        assert f"unrecognized arguments: {stale[0]}" in capsys.readouterr().err


#: Out-of-range operator input, one case per flag.
BAD_FLAGS = [
    (["campaign", "run", "twotier"], "--rerun", "-1"),
    (["campaign", "run", "twotier"], "--timeout", "0"),
    (["campaign", "smoke", "twotier"], "--timeout", "0"),
    (["campaign", "run", "twotier"], "--pacing", "-1"),
    (["campaign", "run", "twotier"], "--requests", "0"),
    (["campaign", "run", "twotier"], "--max-recipes", "0"),
    (["campaign", "smoke", "twotier"], "--requests", "0"),
    (["campaign", "run", "twotier"], "--think", "-0.5"),
    (["fuzz", "explore", "deepfanout"], "--budget", "0"),
    (["fuzz", "run"], "--cases", "-3"),
    (["fuzz", "run"], "--cases", "0"),
    (["test", "twotier", "--target", "ServiceB"], "--requests", "-3"),
    (["test", "twotier", "--target", "ServiceB"], "--think", "-1"),
    (["trace", "twotier", "test-1"], "--requests", "0"),
    (["metrics", "twotier"], "--think", "-1"),
]


class TestBadOperatorInput:
    """Out-of-range numbers are refused by argparse (exit 2) before
    anything is planned or run: no traceback, no campaign of ``error``
    outcomes, no passing run of zero cases."""

    @pytest.mark.parametrize(
        "command, flag, value",
        BAD_FLAGS,
        ids=[" ".join(command[:2] + [flag, value]) for command, flag, value in BAD_FLAGS],
    )
    def test_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            main(command + [flag, value])
        assert err.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


#: Every flag naming a file a command writes, one case per flag.
OUTPUT_FLAGS = [
    (["campaign", "run", "twotier"], "--out"),
    (["campaign", "run", "twotier"], "--metrics-out"),
    (["campaign", "run", "twotier"], "--report-out"),
    (["campaign", "smoke", "twotier"], "--report-out"),
    (["fuzz", "explore", "deepfanout"], "--coverage-out"),
    (["fuzz", "explore", "deepfanout"], "--report-out"),
    (["fuzz", "explore", "deepfanout"], "--recipes-out"),
    (["fuzz", "shrink", "case.json"], "--out"),
    (["report", "dump.jsonl"], "--out"),
]


class TestUnwritableOutput:
    """A path that cannot be written is a usage error (exit 2), never a
    finding (exit 1) after the whole job ran, and never a traceback."""

    @pytest.mark.parametrize(
        "command, flag", OUTPUT_FLAGS, ids=[" ".join(c[:2] + [f]) for c, f in OUTPUT_FLAGS]
    )
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_is_refused_before_anything_runs(self, command, flag, target, capsys, tmp_path):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as err:
            main(command + [flag, str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err

    def test_directory_gone_by_write_time_is_one_line(self, capsys, tmp_path, monkeypatch):
        from repro.campaign.runner import CampaignRunner

        out = tmp_path / "out"
        out.mkdir()
        real_run = CampaignRunner.run

        def run_then_vanish(self, plan):
            result = real_run(self, plan)
            out.rmdir()
            return result

        monkeypatch.setattr(CampaignRunner, "run", run_then_vanish)
        dump = out / "c.jsonl"
        argv = ["campaign", "run", "twotier", "--max-recipes", "2", "--out", str(dump)]
        line = refused(capsys, argv)
        assert line == f"repro: error: {dump}: cannot write: No such file or directory"
        assert os.listdir(tmp_path) == []

    def test_fuzz_artifacts_naming_a_file(self, capsys, tmp_path, monkeypatch):
        import repro.fuzz.harness as harness_mod

        real_run = harness_mod.run_case

        def exploding(case):
            if case.case_id.endswith("-2"):
                raise RuntimeError("boom")
            return real_run(case)

        monkeypatch.setattr(harness_mod, "run_case", exploding)
        path = tmp_path / "artifacts"
        path.write_text("")
        argv = ["fuzz", "run", "--seed", "31", "--cases", "4", "--workers", "1"]
        line = refused(capsys, argv + ["--no-shrink", "--artifacts", str(path)])
        assert line == f"repro: error: {path}: cannot write: File exists"


class TestCleanCliErrors:
    def test_trace_unknown_entry_exits_cleanly(self, capsys):
        line = refused(
            capsys, ["trace", "tree3", "test-1", "--entry", "ghost", "--requests", "2"]
        )
        assert "unknown entry" in line

    def test_test_unknown_entry_exits_cleanly(self, capsys):
        line = refused(
            capsys, ["test", "twotier", "--target", "ServiceB", "--entry", "bogus"]
        )
        assert "unknown entry 'bogus'" in line

    def test_test_unknown_target_exits_cleanly(self, capsys):
        line = refused(capsys, ["test", "twotier", "--target", "ghost"])
        assert "unknown target 'ghost'" in line

    def test_campaign_diff_of_two_apps_exits_cleanly(self, capsys, tmp_path):
        from repro.campaign import CampaignResult, dump_jsonl

        paths = []
        for app in ("twotier", "tree3"):
            paths.append(str(tmp_path / f"{app}.jsonl"))
            dump_jsonl(CampaignResult("c", app, 0, 1, outcomes=[]), paths[-1])
        line = refused(capsys, ["campaign", "diff", *paths])
        assert "different apps" in line and "'twotier'" in line and "'tree3'" in line

    def test_report_missing_dump_exits_cleanly(self, capsys, tmp_path):
        # A one-line operator message, not a traceback.
        line = refused(capsys, ["report", str(tmp_path / "missing.jsonl")])
        assert "missing.jsonl: cannot read" in line

    @pytest.mark.parametrize("version", [99, None], ids=["bumped", "missing"])
    @pytest.mark.parametrize(
        "command", [["report"], ["campaign", "diff"]], ids=" ".join
    )
    def test_dump_in_another_format_exits_cleanly(self, capsys, tmp_path, command, version):
        from repro.campaign import CampaignResult, dump_jsonl

        dump = tmp_path / "future.jsonl"
        dump_jsonl(CampaignResult("c", "twotier", 0, 1, outcomes=[]), dump)
        header, *rest = dump.read_text().splitlines()
        doc = json.loads(header)
        doc.pop("version")
        if version is not None:
            doc["version"] = version
        dump.write_text("\n".join([json.dumps(doc)] + rest) + "\n")
        paths = [str(dump)] * (2 if command[0] == "campaign" else 1)
        assert refused(capsys, command + paths) == (
            f"repro: error: {dump}: line 1: 'campaign' version {version!r},"
            " expected 'campaign' version 2"
        )

    def test_campaign_recipes_missing_suite_exits_cleanly(self, capsys, tmp_path):
        line = refused(
            capsys,
            ["campaign", "run", "twotier", "--recipes", str(tmp_path / "missing.json")],
        )
        assert "missing.json: cannot read" in line


class TestReportCommand:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("report-cli")
        dump = tmp / "dump.jsonl"
        report = tmp / "report.json"
        code = main(
            [
                "campaign", "run", "twotier",
                "--requests", "5", "--workers", "2",
                "--out", str(dump), "--report-out", str(report),
            ]
        )
        return dump, report, code

    def test_campaign_run_writes_the_report(self, artifacts, capsys):
        dump, report, _code = artifacts
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert doc["report"] == "resilience"
        assert doc["app"] == "twotier"
        assert doc["verdicts"]

    def test_report_regenerates_identically_from_the_dump(self, artifacts, capsys):
        dump, report, _code = artifacts
        capsys.readouterr()
        assert main(["report", str(dump)]) == 0
        assert capsys.readouterr().out == report.read_text()

    def test_report_out_html(self, artifacts, capsys, tmp_path):
        dump, _report, _code = artifacts
        html = tmp_path / "report.html"
        assert main(["report", str(dump), "--out", str(html)]) == 0
        out = capsys.readouterr().out
        assert f"resilience report written to {html}" in out
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text


@pytest.mark.parametrize(
    "path, written",
    [
        ("report.html", "report.deepfanout.html"),
        ("./report", "./report.deepfanout"),
        ("out.d/report", "out.d/report.deepfanout"),
    ],
)
def test_per_app_path_splits_the_file_name_not_the_path(path, written):
    assert _per_app_path(path, "deepfanout", multi=True) == written
    assert _per_app_path(path, "deepfanout", multi=False) == path


class TestExploreArtifacts:
    def test_explore_all_writes_one_artifact_per_app(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.d").mkdir()
        main(
            [
                "fuzz", "explore", "all", "--budget", "1",
                "--report-out", "./report", "--recipes-out", "out.d/suite",
            ]
        )
        out = capsys.readouterr().out
        for app in ("deepfanout", "retrystorm", "stuckbreaker"):
            assert f"written: ./report.{app}" in out
            assert (tmp_path / f"report.{app}").read_text().startswith("<!DOCTYPE html>")
            suite = artifact.read(tmp_path / "out.d" / f"suite.{app}", "recipe-suite")
            assert suite[0]["app"] == app

    def test_whatif_recipes_round_trip_through_campaign_run(self, capsys, tmp_path):
        recipes = tmp_path / "recipes.json"
        report = tmp_path / "explore.html"
        code = main(
            [
                "fuzz", "explore", "stuckbreaker",
                "--budget", "6", "--strategy", "whatif",
                "--recipes-out", str(recipes),
                "--report-out", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # whatif surfaces the planted bug within budget
        assert f"written: {recipes}" in out
        assert f"written: {report}" in out
        assert report.read_text().startswith("<!DOCTYPE html>")
        suite, *coordinates = artifact.read(recipes, "recipe-suite")
        assert suite["app"] == "stuckbreaker"
        assert suite["strategy"] == "whatif"
        assert coordinates

        # The exported suite replays as extra campaign recipes and
        # reproduces the conclusive failure it recorded.
        code = main(
            [
                "campaign", "run", "stuckbreaker",
                "--recipes", str(recipes),
                "--requests", "40", "--workers", "2", "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        replayed = [
            o for o in doc["outcomes"] if o["name"].startswith("explore/")
        ]
        assert replayed and all(o["status"] == "fail" for o in replayed)

    def test_recipe_suite_app_mismatch_exits_cleanly(self, capsys, tmp_path):
        recipes = tmp_path / "recipes.json"
        main(
            [
                "fuzz", "explore", "stuckbreaker",
                "--budget", "2", "--strategy", "whatif",
                "--recipes-out", str(recipes),
            ]
        )
        capsys.readouterr()
        line = refused(capsys, ["campaign", "run", "twotier", "--recipes", str(recipes)])
        assert "targets app" in line


class TestRefusedFiles:
    """A file the harness reads back and refuses exits 2 with one
    stderr line naming it — never a traceback, never exit 1 (a finding)
    and never 0 on a partial read."""

    @pytest.fixture(scope="class")
    def torn_dump(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("torn")
        dump = tmp / "c.jsonl"
        main(["campaign", "run", "twotier", "--requests", "5", "--out", str(dump)])
        lines = dump.read_text().splitlines(keepends=True)
        assert len(lines) == 5  # header, campaign record, 2 outcomes, trailer
        torn = tmp / "torn.jsonl"
        torn.write_text("".join(lines[:3]))
        return torn

    @pytest.mark.parametrize("command", [["report"], ["campaign", "diff"]], ids=" ".join)
    def test_torn_dump_is_refused(self, capsys, torn_dump, command):
        paths = [str(torn_dump)] * (2 if command[0] == "campaign" else 1)
        line = refused(capsys, command + paths)
        assert f"{torn_dump}: line 3: no trailer" in line
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", ["replay", "shrink"])
    def test_fuzz_artifact_that_is_a_list_is_refused(self, capsys, tmp_path, verb):
        path = tmp_path / "case.json"
        path.write_text("[1,2]\n")
        line = refused(capsys, ["fuzz", verb, str(path)])
        assert f"{path}: line 1: expected a JSON object, got list" in line

    @pytest.mark.parametrize("verb", ["replay", "shrink"])
    @pytest.mark.parametrize(
        "unbuild, why",
        [
            (
                lambda case: case["topology"].update(kind="app", app="nosuch"),
                "unknown app topology 'nosuch'",
            ),
            (
                lambda case: case["scenarios"][0].update(kind="nosuchkind"),
                "unknown scenario kind 'nosuchkind'",
            ),
            (
                lambda case: case["topology"].update(entry="nosuchsvc"),
                "unknown entry service 'nosuchsvc'",
            ),
        ],
        ids=["app", "scenario-kind", "entry"],
    )
    def test_fuzz_artifact_whose_case_does_not_build_is_refused(
        self, capsys, tmp_path, verb, unbuild, why
    ):
        from repro.fuzz import FuzzGenerator

        case = FuzzGenerator(5, app_fraction=0.0).case(1).to_dict()
        unbuild(case)
        verdict = {"mismatch_kinds": [], "mismatches": [], "digest": ""}
        path = tmp_path / "case.json"
        artifact.write(path, "fuzz-artifact", [{"case": case, "verdict": verdict}])
        line = refused(capsys, ["fuzz", verb, str(path)])
        assert line == f"repro: error: {path}: line 2: {why}"

    @pytest.mark.parametrize(
        "entry",
        [{"key": "k"}, {"key": "k", "coordinate": {"app": "deepfanout"}}],
        ids=["no-coordinate", "coordinate-fields"],
    )
    def test_undecodable_suite_entry_is_refused(self, capsys, tmp_path, entry):
        path = tmp_path / "suite.json"
        suite = {"app": "deepfanout", "strategy": "whatif", "seed": 0}
        artifact.write(path, "recipe-suite", [suite, entry])
        line = refused(capsys, ["campaign", "run", "deepfanout", "--recipes", str(path)])
        assert f"{path}: line 3: " in line
        assert "missing field" in line

    def test_suite_that_is_not_an_object_is_refused(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("[]\n")
        line = refused(capsys, ["campaign", "run", "deepfanout", "--recipes", str(path)])
        assert f"{path}: line 1: expected a JSON object, got list" in line

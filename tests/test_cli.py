"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.campaign import load_jsonl
from repro.cli import APPS, main


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


class TestGraph:
    def test_prints_edges(self, capsys):
        assert main(["graph", "twotier"]) == 0
        out = capsys.readouterr().out
        assert "ServiceA -> ServiceB" in out
        assert "entry services: ServiceA" in out

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            main(["graph", "nope"])


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

    def test_unknown_target_exits(self):
        with pytest.raises(SystemExit, match="unknown target"):
            main(["test", "twotier", "--target", "ghost"])

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

    def test_unfaulted_trace_spans_full_tree(self, capsys):
        # No --target: every request fans out over all 7 services of
        # the depth-3 tree, so one trace holds all 6 internal edges.
        code = main(["trace", "tree3", "test-1", "--requests", "2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["span_count"] == 15
        assert doc["failed"] is False
        assert doc["attributions"] == []

    def test_unknown_request_id_exits(self, capsys):
        with pytest.raises(SystemExit, match="no records for request ID"):
            main(["trace", "tree3", "nope-99", "--requests", "2"])


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

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["campaign", "run", "nope"])

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
        with pytest.raises(SystemExit, match=r"analysis error: .*repro\[stats\]"):
            main(["campaign", "diff", str(baseline), str(baseline)])
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

        case = FuzzGenerator(5, app_registry=APPS).case(1)
        artifact = tmp_path / "case.json"
        write_artifact(str(artifact), run_case(case, app_registry=APPS))
        code = main(["fuzz", "replay", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out
        code = main(["fuzz", "replay", str(artifact), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["reproduced"] is True
        assert doc["expected_digest"] == doc["observed_digest"]

    def test_replay_missing_artifact_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot replay"):
            main(["fuzz", "replay", str(tmp_path / "missing.json")])

    def test_shrink_passing_artifact_reports_nothing_to_do(self, capsys, tmp_path):
        from repro.fuzz import FuzzGenerator, run_case, write_artifact

        case = FuzzGenerator(5, app_registry=APPS).case(2)
        artifact = tmp_path / "case.json"
        write_artifact(str(artifact), run_case(case, app_registry=APPS))
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

    def test_explore_unknown_app_exits_cleanly_listing_names(self):
        with pytest.raises(SystemExit) as err:
            main(["fuzz", "explore", "no-such-app"])
        message = str(err.value)
        assert "no-such-app" in message
        assert "socialnetwork" in message and "hotelreservation" in message
        assert "stuckbreaker" in message

    def test_campaign_run_unknown_app_exits_cleanly_listing_names(self):
        with pytest.raises(SystemExit) as err:
            main(["campaign", "run", "no-such-app"])
        message = str(err.value)
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


class TestCleanCliErrors:
    def test_trace_unknown_entry_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown entry"):
            main(["trace", "tree3", "test-1", "--entry", "ghost", "--requests", "2"])

    def test_report_missing_dump_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report", str(tmp_path / "missing.jsonl")])
        # A one-line operator message, not a traceback.
        assert "missing.jsonl" in str(err.value)

    def test_campaign_recipes_missing_suite_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read recipe suite"):
            main(
                [
                    "campaign", "run", "twotier",
                    "--recipes", str(tmp_path / "missing.json"),
                ]
            )


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


class TestExploreArtifacts:
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
        suite = json.loads(recipes.read_text())
        assert suite["app"] == "stuckbreaker"
        assert suite["strategy"] == "whatif"
        assert suite["coordinates"]

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
        with pytest.raises(SystemExit, match="targets app"):
            main(["campaign", "run", "twotier", "--recipes", str(recipes)])

"""The exploration loop end to end: replay fidelity, bug finding,
prioritization, and coverage accounting."""

import json

import pytest

from repro.apps.outages import SEEDED_BUG_SUITE
from repro.campaign.fleet import ProcessPool
from repro.errors import CampaignError, ExploreError
from repro.explore import (
    ExploreTask,
    compile_scenarios,
    discover_space,
    execute_task,
    run_explore,
    run_wave,
    task_fleet,
)
from repro.simulation.kernel import SCHEDULERS

from tests.conftest import deploying_on, live_fleet_workers


def wave(tasks, **fleet_kwargs):
    """One standalone wave on a fleet of its own."""
    with task_fleet(**fleet_kwargs) as fleet:
        return run_wave(tasks, fleet)


def task_for(app, coordinate):
    manifest = SEEDED_BUG_SUITE[app]
    return ExploreTask(
        app=app,
        seed=0,
        key=coordinate.key(),
        scenarios=tuple(compile_scenarios(coordinate, manifest)),
    )


class TestReplayFidelity:
    """A serialized coordinate replays bit-for-bit everywhere."""

    def test_digest_identical_across_thread_worker_counts(self):
        space = discover_space("deepfanout", seed=0)
        task = task_for("deepfanout", space.sweeps[0])
        baseline = execute_task(task)
        for workers in (1, 3):
            outcomes = wave([task, task], workers=workers, backend="threads")
            assert [o.digest for o in outcomes] == [baseline.digest] * 2

    @pytest.mark.slow
    def test_digest_identical_on_process_backend(self):
        space = discover_space("deepfanout", seed=0)
        task = task_for("deepfanout", space.sweeps[0])
        baseline = execute_task(task)
        outcomes = wave([task, task], workers=2, backend="processes")
        assert all(o.ok for o in outcomes)
        assert [o.digest for o in outcomes] == [baseline.digest] * 2

    def test_digest_identical_across_scheduler_lanes(self):
        space = discover_space("stuckbreaker", seed=0)
        coordinate = space.sweeps[0]
        task = task_for("stuckbreaker", coordinate)
        digests = set()
        for lane in SCHEDULERS:
            with deploying_on(lane):
                digests.add(execute_task(task).digest)
        assert len(digests) == 1

    def test_socialnetwork_digests_identical_across_scheduler_lanes(self):
        # The 28-service production app replays bit-for-bit on both
        # scheduler implementations, for every fault primitive.
        space = discover_space("socialnetwork", seed=0)
        by_fault = {}
        for coordinate in space.sweeps:
            by_fault.setdefault(coordinate.fault, coordinate)
        for fault, coordinate in sorted(by_fault.items()):
            task = task_for("socialnetwork", coordinate)
            digests = set()
            for lane in SCHEDULERS:
                with deploying_on(lane):
                    digests.add(execute_task(task).digest)
            assert len(digests) == 1, fault

    def test_socialnetwork_explore_identical_across_thread_counts(self):
        runs = [
            run_explore(
                "socialnetwork", budget=12, seed=0, workers=workers,
                stop_when_found=True,
            )
            for workers in (1, 4)
        ]
        assert [key for key, _d in runs[0].executed] == [
            key for key, _d in runs[1].executed
        ]
        assert dict(runs[0].executed) == dict(runs[1].executed)
        assert runs[0].report.to_dict() == runs[1].report.to_dict()

    @pytest.mark.slow
    def test_socialnetwork_digests_identical_on_process_backend(self):
        space = discover_space("socialnetwork", seed=0)
        task = task_for("socialnetwork", space.sweeps[0])
        baseline = execute_task(task)
        outcomes = wave([task, task], workers=2, backend="processes")
        assert all(o.ok for o in outcomes)
        assert [o.digest for o in outcomes] == [baseline.digest] * 2

    def test_round_tripped_coordinate_replays_identically(self):
        from repro.explore import Coordinate

        space = discover_space("retrystorm", seed=0)
        coordinate = space.sweeps[0]
        clone = Coordinate.from_dict(json.loads(json.dumps(coordinate.to_dict())))
        assert (
            execute_task(task_for("retrystorm", coordinate)).digest
            == execute_task(task_for("retrystorm", clone)).digest
        )

    def test_error_outcome_instead_of_raise(self):
        outcome = wave(
            [ExploreTask(app="no-such-app", seed=0, key="x")], workers=1
        )[0]
        assert not outcome.ok
        assert "no-such-app" in outcome.error


class TestWarmFleet:
    """One fleet serves every wave of a run: process workers are
    spawned once, not once per 8-task wave, and never outlive it."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        spawns = []
        spawn = ProcessPool._spawn

        def counting_spawn(pool):
            spawns.append(pool)
            return spawn(pool)

        monkeypatch.setattr(ProcessPool, "_spawn", counting_spawn)
        return spawns

    @pytest.mark.slow
    def test_process_run_spawns_one_fleet_for_all_waves(self, spawned):
        serial = run_explore("deepfanout", budget=150, seed=11, workers=1)
        assert not spawned
        fleet = run_explore(
            "deepfanout", budget=150, seed=11, workers=2, backend="processes"
        )
        assert len(fleet.executed) > 8  # several waves
        assert 1 <= len(spawned) <= 2  # 8 at the parent: a cold pool per wave
        assert fleet.executed == serial.executed
        assert fleet.findings == serial.findings
        assert not live_fleet_workers()

    def test_no_worker_outlives_a_run_that_raises_mid_wave(self, monkeypatch, spawned):
        from repro.explore import runner as explore_runner

        def wave_then_fail(tasks, fleet):
            run_wave(tasks, fleet)
            assert live_fleet_workers()
            raise RuntimeError("loop broke")

        monkeypatch.setattr(explore_runner, "run_wave", wave_then_fail)
        with pytest.raises(RuntimeError, match="loop broke"):
            run_explore(
                "stuckbreaker", budget=8, seed=0, workers=2, backend="processes"
            )
        assert spawned
        assert not live_fleet_workers()


class TestRunExplore:
    @pytest.mark.parametrize("app", sorted(SEEDED_BUG_SUITE))
    def test_finds_every_planted_bug(self, app):
        result = run_explore(app, budget=150, seed=0, stop_when_found=True)
        assert result.all_bugs_found
        assert result.executions_to_all_bugs is not None
        assert result.executions_to_all_bugs <= result.report.executed <= 150

    def test_deterministic_at_any_thread_worker_count(self):
        runs = [
            run_explore(
                "stuckbreaker", budget=24, seed=0, workers=workers,
                stop_when_found=True,
            )
            for workers in (1, 4)
        ]
        assert runs[0].executed == runs[1].executed
        assert runs[0].report.to_dict() == runs[1].report.to_dict()

    def test_prioritized_beats_random_on_seed_apps(self):
        # The 2x claim holds on the small seeded-bug apps the frontier
        # heuristics were calibrated on.  The production-scale apps
        # plant their bugs on leaf datastore edges, ordered within a
        # band by the fan-in/depth tie-break (regression-pinned below);
        # the hard guarantee there is the band bound.
        total = {"prioritized": 0, "random": 0}
        for app in ("deepfanout", "retrystorm", "stuckbreaker"):
            for strategy in total:
                result = run_explore(
                    app, budget=150, seed=0, strategy=strategy,
                    stop_when_found=True,
                )
                assert result.all_bugs_found, (app, strategy)
                total[strategy] += result.executions_to_all_bugs
        assert total["prioritized"] <= 0.5 * total["random"]

    @pytest.mark.parametrize("app", ["socialnetwork", "hotelreservation"])
    def test_production_apps_found_within_two_bands(self, app):
        # Bands guarantee every edge is probed with abort before any
        # edge sees delay: both planted bugs (abort- and
        # delay-triggered) surface within two full sweep bands.
        result = run_explore(app, budget=150, seed=0, stop_when_found=True)
        assert result.all_bugs_found
        space = discover_space(app, seed=0)
        assert result.executions_to_all_bugs <= 2 * len(space.edges)

    def test_socialnetwork_store_edge_bug_beats_plain_blast_radius(self):
        # Regression pin for the fan-in/depth tie-break: under plain
        # blast-radius-then-shallow ranking the seeded store-edge bug
        # (storm-retries on post-storage->post-store) surfaced at
        # execution 29 and all bugs took 59 executions; the tie-break
        # pulls the shared, terminal storage hops forward within their
        # band.
        result = run_explore(
            "socialnetwork", budget=150, seed=0, stop_when_found=True
        )
        assert result.all_bugs_found
        executed_keys = [key for key, _digest in result.executed]
        store_bug = next(
            finding for finding in result.findings
            if finding.bug_id == "socialnetwork/storm-retries"
        )
        assert executed_keys.index(store_bug.coordinate) + 1 < 29
        assert result.executions_to_all_bugs < 59

    def test_masking_prunes_deepfanout_descendants(self):
        result = run_explore("deepfanout", budget=150, seed=0, stop_when_found=True)
        assert result.report.pruned > 0
        assert result.report.pruned == len(result.pruned)
        confirmed = result.findings[0]
        # Pruned keys were never executed.
        executed_keys = {key for key, _digest in result.executed}
        assert not executed_keys.intersection(result.pruned)
        assert confirmed.coordinate in executed_keys

    def test_coverage_report_accounting(self):
        result = run_explore("stuckbreaker", budget=24, seed=0)
        report = result.report
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["executed"] == len(result.executed) <= 24
        assert doc["coordinates_enumerated"] == (
            doc["sweep_coordinates"] + doc["single_coordinates"]
        )
        assert doc["shapes_seen"] == doc["baseline_shapes"] + doc["new_shapes"]
        assert doc["bugs_planted"] == ["stuckbreaker/never-closes"]
        assert doc["all_bugs_found"] is True
        rendered = report.render()
        assert "stuckbreaker/never-closes" in rendered
        assert "planted bugs found" in rendered

    def test_fault_free_baseline_passes_all_checks(self):
        for app in sorted(SEEDED_BUG_SUITE):
            outcome = execute_task(ExploreTask(app=app, seed=0, key="baseline"))
            assert outcome.ok
            for name, passed, inconclusive in outcome.verdicts:
                assert passed or inconclusive, (app, name)

    def test_bad_arguments_raise(self):
        with pytest.raises(CampaignError, match="workers"):
            run_explore("deepfanout", workers=0)
        with pytest.raises(ExploreError):
            run_explore("deepfanout", budget=0)
        with pytest.raises(ExploreError):
            run_explore("deepfanout", strategy="exhaustive")
        with pytest.raises(ExploreError):
            run_explore("no-such-app")

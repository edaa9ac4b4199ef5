"""The fleet: one contract on both lanes, and what processes add.

``TestFleetContract`` pins the calling convention every harness relies
on — results keyed by job position, a raising job converted via
``on_crash``, ``stop_when`` fail-fast, reuse across runs — with the
same targets and assertions on ``threads`` and ``processes``.  The
rest pins what the ``processes`` backend adds on top:

* job payloads and contexts round-trip through spawn workers,
* a worker process that *dies* mid-job costs exactly the one job it
  held — that job is converted via ``on_crash``, a replacement worker
  is spawned, every other job completes, and the fleet exits (no hang,
  no silently shrunken fleet),
* a result that cannot be pickled degrades to the same ``on_crash``
  path instead of killing the worker,
* a :class:`ProcessPool` keeps its workers warm across runs and its
  ``close()`` force-terminates even a wedged worker within a bounded
  wall-clock budget.

Every target below is module-level: spawn workers import the target by
qualified name, which is the one structural requirement the backend
puts on callers (lambdas and closures are rejected by pickle).
"""

import os
import pickle
import signal
import threading
import time

import pytest

from repro.campaign.fleet import (
    BACKENDS,
    Fleet,
    ProcessPool,
    ProcessWorkerSpec,
    resolve_workers,
)
from repro.errors import CampaignError
from tests.conftest import live_fleet_workers


def echo_target(worker_id, job, context):
    return {"job": job, "context": context, "pid": os.getpid()}


def double_target(worker_id, job, context):
    return job * 2


def poison_target(worker_id, job, context):
    if job == context["poison"]:
        os._exit(13)  # simulate a segfault/OOM-kill: no exception, no cleanup
    return job * 2


def raising_target(worker_id, job, context):
    if job == "boom":
        raise ValueError("bad job")
    return job


def raise_on_two_target(worker_id, job, context):
    if job == 2:
        raise ValueError("bad job")
    return job * 2


def unpicklable_target(worker_id, job, context):
    if job == "weird":
        return lambda: None  # cannot ship back through the pipe
    return job


def stubborn_target(worker_id, job, context):
    if job == "wedge":
        # Simulate a worker stuck in uninterruptible work: it never
        # returns to the recv loop (so the polite shutdown message goes
        # unread) and shrugs off SIGTERM, leaving kill() as the only out.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(300)
    return job


def on_crash(job, detail):
    return ("crashed", job, detail)


class _ExitOnPickle:
    """Pickling this object kills the interpreter: the worker dies
    *inside* result encoding, after the target already returned
    successfully."""

    def __reduce__(self):
        os._exit(17)


def exit_on_encode_target(worker_id, job, context):
    if job == "die":
        return _ExitOnPickle()
    return job


class TestResolveWorkers:
    def test_auto_sizes_to_the_machine(self):
        assert 1 <= resolve_workers("auto") <= (os.cpu_count() or 1)

    def test_auto_prefers_process_cpu_count(self, monkeypatch):
        # Python 3.13+: honours affinity and -X cpu_count.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        assert resolve_workers("auto") == 3

    def test_auto_honours_the_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert resolve_workers("auto") == 2

    def test_auto_falls_back_to_cpu_count(self, monkeypatch):
        # macOS / Windows have neither call; an unknown count means 1.
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers("auto") == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers("auto") == 1

    def test_integers_and_integer_strings_pass_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("3") == 3

    @pytest.mark.parametrize("bad", [0, -1, "none", None])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(CampaignError):
            resolve_workers(bad)


class TestRunFleetValidation:
    def test_backends_registry(self):
        assert BACKENDS == ("threads", "processes")

    def test_unknown_backend_rejected(self):
        with pytest.raises(CampaignError, match="unknown fleet backend"):
            Fleet(ProcessWorkerSpec(target=double_target), backend="greenlets")


def run_on(backend, jobs, spec, *, workers=1, stop_when=None):
    """One-shot fleet run: open, drain ``jobs``, close."""
    with Fleet(spec, workers=workers, backend=backend) as fleet:
        return fleet.run(jobs, stop_when=stop_when)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFleetContract:
    """One calling convention, both lanes: the same module-level
    targets and the same assertions on ``threads`` and ``processes``."""

    def test_results_keyed_by_position_with_context(self, backend):
        jobs = ["a", "b", "c"]
        spec = ProcessWorkerSpec(target=echo_target, context={"k": 1})
        results = run_on(backend, jobs, spec, workers=2)
        assert sorted(results) == [0, 1, 2]
        for position, job in enumerate(jobs):
            assert results[position]["job"] == job
            assert results[position]["context"] == {"k": 1}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_job_is_an_on_crash_result(self, backend, workers):
        # At the parent the thread lane let the ValueError escape at
        # workers=1 and silently lost position 2 at workers=2.
        spec = ProcessWorkerSpec(target=raise_on_two_target, on_crash=on_crash)
        results = run_on(backend, list(range(5)), spec, workers=workers)
        assert results == {
            0: 0,
            1: 2,
            2: ("crashed", 2, "ValueError: bad job"),
            3: 6,
            4: 8,
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_job_without_handler_is_an_error(self, backend, workers):
        spec = ProcessWorkerSpec(target=raise_on_two_target)
        with pytest.raises(CampaignError, match="on_crash"):
            run_on(backend, list(range(5)), spec, workers=workers)

    def test_stop_when_leaves_undispatched_positions_absent(self, backend):
        spec = ProcessWorkerSpec(target=double_target, on_crash=on_crash)
        with Fleet(spec, workers=1, backend=backend) as fleet:
            results = fleet.run(
                list(range(8)),
                stop_when=lambda result: result == 4,  # job 2's doubled value
            )
            # One worker drains in order: jobs 0..2 ran, 3..7 never
            # dispatched once stop_when tripped.
            assert sorted(results) == [0, 1, 2]
            assert results[2] == 4
            assert fleet.stop_event.is_set()
            # The next run starts from a clear event.
            assert fleet.run([5]) == {0: 10}
            assert not fleet.stop_event.is_set()

    def test_fleet_is_reusable_across_runs(self, backend):
        spec = ProcessWorkerSpec(target=echo_target, context={"k": 1})
        with Fleet(spec, workers=2, backend=backend) as fleet:
            first = fleet.run(["a", "b", "c", "d"])
            second = fleet.run(["e", "f", "g", "h"])
            assert fleet.run([]) == {}
        assert [first[i]["job"] for i in range(4)] == ["a", "b", "c", "d"]
        assert [second[i]["job"] for i in range(4)] == ["e", "f", "g", "h"]
        # Warm: the same interpreters served both runs (on the thread
        # lane that is trivially this one).
        assert {r["pid"] for r in first.values()} == {
            r["pid"] for r in second.values()
        }
        assert not live_fleet_workers()

    def test_run_after_close_rejected(self, backend):
        fleet = Fleet(ProcessWorkerSpec(target=double_target), backend=backend)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(CampaignError, match="closed"):
            fleet.run([1])

    @pytest.mark.parametrize("workers", [0, "many"])
    def test_bad_worker_count_rejected_up_front(self, backend, workers):
        with pytest.raises(CampaignError, match="workers"):
            Fleet(ProcessWorkerSpec(target=double_target), workers=workers, backend=backend)


class TestStopEvent:
    """Fail-fast must reach a job that is already running: the fleet
    sets ``stop_event`` the moment ``stop_when`` trips, and an
    in-process job waiting on it wakes then, not at its timeout."""

    def test_tripping_stop_when_releases_a_blocked_sibling(self):
        started = threading.Event()

        def target(worker_id, job, context):
            if job == "wait":
                started.set()
                return fleet.stop_event.wait(30.0)
            started.wait(30.0)  # trip only once the sibling is blocked
            return "tripped"

        fleet = Fleet(ProcessWorkerSpec(target=target), workers=2)
        begun = time.monotonic()
        results = fleet.run(
            ["wait", "trip", "never"], stop_when=lambda result: result == "tripped"
        )
        assert time.monotonic() - begun < 10.0
        # The waiter was woken by the event (wait() returned True), and
        # nothing was dispatched after the trip.
        assert results == {0: True, 1: "tripped"}

    def test_a_supplied_event_is_the_one_the_fleet_sets(self):
        event = threading.Event()
        fleet = Fleet(ProcessWorkerSpec(target=double_target), stop_event=event)
        assert fleet.stop_event is event
        fleet.run([1, 2], stop_when=lambda result: True)
        assert event.is_set()


class TestProcessFleet:
    def test_results_keyed_by_position_with_context(self):
        jobs = ["a", "b", "c"]
        results = run_on(
            "processes",
            jobs,
            ProcessWorkerSpec(target=echo_target, context={"k": 1}, on_crash=on_crash),
            workers=2,
        )
        assert sorted(results) == [0, 1, 2]
        for position, job in enumerate(jobs):
            assert results[position]["job"] == job
            assert results[position]["context"] == {"k": 1}
            # Isolation: the job really ran in another interpreter.
            assert results[position]["pid"] != os.getpid()

    def test_matches_thread_backend_results(self):
        jobs = list(range(7))
        spec = ProcessWorkerSpec(target=double_target, on_crash=on_crash)
        threads = run_on("threads", jobs, spec, workers=3)
        procs = run_on("processes", jobs, spec, workers=3)
        assert procs == threads

    def test_worker_crash_fails_only_its_job_and_fleet_recovers(self):
        jobs = list(range(6))
        results = run_on(
            "processes",
            jobs,
            ProcessWorkerSpec(
                target=poison_target, context={"poison": 2}, on_crash=on_crash
            ),
            workers=2,
        )
        # Every job is accounted for: the fleet neither hung nor lost
        # queued work when the worker holding job 2 died.
        assert sorted(results) == jobs
        assert results[2][0] == "crashed"
        assert results[2][1] == 2
        assert "exited with code" in results[2][2]
        for position in (0, 1, 3, 4, 5):
            assert results[position] == position * 2

    def test_raising_target_degrades_to_on_crash(self):
        results = run_on(
            "processes",
            ["ok", "boom"],
            ProcessWorkerSpec(target=raising_target, on_crash=on_crash),
        )
        assert results[0] == "ok"
        assert results[1][0] == "crashed"
        assert "ValueError: bad job" in results[1][2]

    def test_unpicklable_result_degrades_to_on_crash(self):
        results = run_on(
            "processes",
            ["fine", "weird"],
            ProcessWorkerSpec(target=unpicklable_target, on_crash=on_crash),
        )
        assert results[0] == "fine"
        assert results[1][0] == "crashed"
        assert "not serializable" in results[1][2]

    def test_worker_death_mid_encode_degrades_to_on_crash(self):
        # The target *returns* fine; the worker dies while serializing
        # the result.  That must surface as an on_crash result and a
        # replacement worker that finishes the remaining jobs.
        results = run_on(
            "processes",
            ["a", "die", "b", "c"],
            ProcessWorkerSpec(target=exit_on_encode_target, on_crash=on_crash),
        )
        assert sorted(results) == [0, 1, 2, 3]
        assert results[1][0] == "crashed"
        assert "exited with code 17" in results[1][2]
        assert results[0] == "a"
        assert results[2] == "b"
        assert results[3] == "c"

    def test_crash_without_handler_is_an_error(self):
        with pytest.raises(CampaignError, match="on_crash"):
            run_on(
                "processes",
                [0, 1, 2],
                ProcessWorkerSpec(target=poison_target, context={"poison": 1}),
            )

    def test_fail_fast_stops_dispatching(self):
        jobs = list(range(8))
        results = run_on(
            "processes",
            jobs,
            ProcessWorkerSpec(target=double_target, on_crash=on_crash),
            stop_when=lambda result: result == 4,  # job 2's doubled value
        )
        # One worker drains in order: jobs 0..2 ran, 3..7 never
        # dispatched once stop_when tripped.
        assert sorted(results) == [0, 1, 2]
        assert results[2] == 4


class TestProcessPool:
    """The warm pool: workers persist across runs, crashes replace,
    close() is bounded and idempotent."""

    def test_workers_stay_warm_across_runs(self):
        spec = ProcessWorkerSpec(target=echo_target, context={"k": 1}, on_crash=on_crash)
        with ProcessPool(spec, size=2) as pool:
            first = pool.run(["a", "b", "c", "d"])
            first_pids = {result["pid"] for result in first.values()}
            assert pool.workers_alive == 2
            second = pool.run(["e", "f", "g", "h"])
            second_pids = {result["pid"] for result in second.values()}
            # Same interpreters served both waves: no respawn between runs.
            assert first_pids == second_pids
        assert pool.workers_alive == 0

    def test_crashed_worker_replaced_and_pool_stays_usable(self):
        spec = ProcessWorkerSpec(
            target=poison_target, context={"poison": "die"}, on_crash=on_crash
        )
        with ProcessPool(spec, size=1) as pool:
            results = pool.run(["die", 1, 2])
            assert results[0][0] == "crashed"
            assert results[1] == 2
            assert results[2] == 4
            # The replacement worker survives into the next wave.
            assert pool.run([5]) == {0: 10}

    def test_failed_send_leaves_the_pool_usable(self):
        """A job that cannot be pickled fails ``run`` before anything
        reaches its worker.  The pool must stay usable: that worker is
        not left marked busy (the next run would wait forever on an
        idle child), and a sibling that did get its job is retired
        rather than answering into the next run's positions."""
        spec = ProcessWorkerSpec(target=double_target, on_crash=on_crash)
        pool = ProcessPool(spec, size=2)
        try:
            with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
                pool.run([5, lambda: 1, 7])
            answer = {}
            second = threading.Thread(
                target=lambda: answer.update(pool.run([3])), daemon=True
            )
            second.start()
            second.join(timeout=30.0)
            hung = second.is_alive()
            if hung:
                # Fail the stuck run through the crash path so its
                # thread does not outlive the test.
                for worker in pool._workers:
                    worker.process.kill()
                second.join(timeout=10.0)
            assert not hung, "second run() blocked on an idle worker"
            assert answer == {0: 6}
        finally:
            pool.close()
        assert not live_fleet_workers()

    def test_run_after_close_rejected(self):
        pool = ProcessPool(
            ProcessWorkerSpec(target=echo_target, on_crash=on_crash), size=1
        )
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(CampaignError, match="closed"):
            pool.run([1])

    def test_invalid_size_rejected(self):
        with pytest.raises(CampaignError):
            ProcessPool(ProcessWorkerSpec(target=echo_target, on_crash=on_crash), size=0)

    def test_close_force_kills_a_wedged_worker(self):
        """Shutdown hardening: a worker that never reads the shutdown
        message and ignores SIGTERM still cannot wedge close() — the
        join deadline expires and the escalation ends in kill()."""
        spec = ProcessWorkerSpec(target=stubborn_target, on_crash=on_crash)
        pool = ProcessPool(spec, size=1)
        assert pool.run(["warm"]) == {0: "warm"}
        worker = pool._workers[0]
        # Wedge the worker mid-job so the polite shutdown goes unread.
        worker.send(0, "wedge")
        time.sleep(0.5)  # let the child install its SIGTERM ignore
        started = time.monotonic()
        pool.close(timeout=1.0)
        elapsed = time.monotonic() - started
        assert not worker.process.is_alive()
        assert elapsed < 10.0

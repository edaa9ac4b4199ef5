"""Campaign engine: fleet speedup over serial execution.

The campaign runner's claim is operational, not algorithmic: when each
experiment occupies a test slot for real wall-clock time (the
live-deployment regime the paper's Gremlin operates in — faults stay
staged while traffic flows, logs settle before assertions), a fleet of
N workers should finish a recipe suite close to N times faster than a
serial loop.  This benchmark pins that claim on the 42-recipe
auto-generated campaign for the depth-3 service tree (Fig 7's largest
multi-level topology):

* **paced** runs model the live regime with a 0.3 s wall-clock floor
  per recipe (``pacing``) — the fleet must be >= 2x faster at 4 workers;
* **unpaced** runs are recorded for transparency: the simulated data
  plane is pure CPU under the GIL, so on this container (``cpus`` in
  the JSON) thread workers cannot speed up compute-bound campaigns.

The second experiment pins the ``processes`` backend: spawn-isolated
workers overlap paced floors exactly like threads do, and — unlike
threads — can scale the *unpaced* CPU-bound suite across cores, which
is the whole point of the backend.  The cross-core assertion is gated
on the machine actually having cores (``cpus >= 4``); on smaller
containers the curves are recorded but only equivalence is asserted.

The third experiment pins the reason the fleet is reusable: a warm
:class:`ProcessPool` amortizes the interpreter-spawn tax across waves
of jobs.  (Dispatch batching and campaign sharding were measured here
until PR 17 and never won; docs/INTERNALS.md "Lanes" keeps the
numbers.)

All experiments re-assert the determinism contract where it matters
most: every backend/worker combination must produce identical
per-recipe statuses.

Numbers land in ``BENCH_campaign.json`` via the session-finish hook in
``conftest.py``.
"""

import os
import time

from repro.apps import build_tree_app
from repro.campaign import CampaignRunner, ProcessPool, ProcessWorkerSpec, plan_campaign
from repro.campaign.runner import RecipeExecutor, _crashed_outcome, _execute_job
from repro.cli import build_tree3_app

FLEET_WORKERS = 4
PACING = 0.3
REQUESTS = 10

#: The cross-core claim (processes vs threads on the CPU-bound suite)
#: targets >= 3x at 4 cores; the hard gate is 2x to absorb scheduler
#: noise on shared runners.
PROCESS_SPEEDUP_TARGET = 3.0
PROCESS_SPEEDUP_GATE = 2.0


def tree3():
    return build_tree_app(3)


def run_campaign(plan, *, workers, pacing, backend="threads"):
    # build_tree3_app is module-level in repro.cli, so the factory
    # pickles by reference into spawn workers.
    runner = CampaignRunner(
        build_tree3_app, workers=workers, pacing=pacing, timeout=120.0, backend=backend
    )
    start = time.perf_counter()
    result = runner.run(plan)
    return result, time.perf_counter() - start


def test_fleet_speedup_on_paced_campaign(report, bench_campaign):
    plan = plan_campaign(tree3, seed=20, requests=REQUESTS)
    assert len(plan) >= 40, "speedup claim is about campaign-sized suites"

    serial_result, serial_s = run_campaign(plan, workers=1, pacing=PACING)
    fleet_result, fleet_s = run_campaign(plan, workers=FLEET_WORKERS, pacing=PACING)

    # Determinism contract: the fleet changes wall-clock time, nothing else.
    assert [o.status for o in serial_result.outcomes] == [
        o.status for o in fleet_result.outcomes
    ]

    _, unpaced_serial_s = run_campaign(plan, workers=1, pacing=0.0)
    _, unpaced_fleet_s = run_campaign(plan, workers=FLEET_WORKERS, pacing=0.0)

    speedup = serial_s / fleet_s
    bench_campaign.update(
        {
            "app": "tree3",
            "recipes": len(plan),
            "requests_per_recipe": REQUESTS,
            "workers": FLEET_WORKERS,
            "pacing_s": PACING,
            "cpus": os.cpu_count(),
            "paced": {
                "serial_s": round(serial_s, 3),
                "fleet_s": round(fleet_s, 3),
                "speedup": round(speedup, 2),
            },
            "unpaced": {
                "serial_s": round(unpaced_serial_s, 3),
                "fleet_s": round(unpaced_fleet_s, 3),
                "speedup": round(unpaced_serial_s / unpaced_fleet_s, 2),
            },
        }
    )
    report.add(
        "Campaign engine — fleet speedup on the 42-recipe tree3 suite",
        f"  paced ({PACING:.1f}s/recipe floor): serial {serial_s:6.2f}s,"
        f" {FLEET_WORKERS} workers {fleet_s:6.2f}s -> {speedup:.2f}x\n"
        f"  unpaced (CPU-bound, {os.cpu_count()} cpu): serial {unpaced_serial_s:6.2f}s,"
        f" {FLEET_WORKERS} workers {unpaced_fleet_s:6.2f}s"
        f" -> {unpaced_serial_s / unpaced_fleet_s:.2f}x",
    )

    assert speedup >= 2.0, (
        f"fleet of {FLEET_WORKERS} should halve a paced campaign:"
        f" serial {serial_s:.2f}s vs fleet {fleet_s:.2f}s ({speedup:.2f}x)"
    )


def test_process_backend_scaling(report, bench_campaign):
    plan = plan_campaign(tree3, seed=20, requests=REQUESTS)
    cpus = os.cpu_count() or 1

    serial_result, serial_s = run_campaign(plan, workers=1, pacing=PACING)
    paced_result, paced_s = run_campaign(
        plan, workers=FLEET_WORKERS, pacing=PACING, backend="processes"
    )
    threads_result, threads_s = run_campaign(plan, workers=FLEET_WORKERS, pacing=0.0)
    procs_result, procs_s = run_campaign(
        plan, workers=FLEET_WORKERS, pacing=0.0, backend="processes"
    )

    # Determinism contract: the backend changes wall-clock time, nothing
    # else — statuses agree across every backend/worker combination.
    statuses = [o.status for o in serial_result.outcomes]
    for other in (paced_result, threads_result, procs_result):
        assert [o.status for o in other.outcomes] == statuses

    paced_speedup = serial_s / paced_s
    vs_threads = threads_s / procs_s
    bench_campaign["backend_scaling"] = {
        "workers": FLEET_WORKERS,
        "cpus": cpus,
        "paced": {
            "serial_s": round(serial_s, 3),
            "processes_s": round(paced_s, 3),
            "speedup": round(paced_speedup, 2),
        },
        "unpaced": {
            "threads_s": round(threads_s, 3),
            "processes_s": round(procs_s, 3),
            "processes_vs_threads": round(vs_threads, 2),
            "target_at_4_cores": PROCESS_SPEEDUP_TARGET,
        },
    }
    report.add(
        "Campaign engine — processes backend on the 42-recipe tree3 suite",
        f"  paced ({PACING:.1f}s/recipe floor): serial {serial_s:6.2f}s,"
        f" {FLEET_WORKERS} processes {paced_s:6.2f}s -> {paced_speedup:.2f}x\n"
        f"  unpaced (CPU-bound, {cpus} cpu): {FLEET_WORKERS} threads"
        f" {threads_s:6.2f}s, {FLEET_WORKERS} processes {procs_s:6.2f}s"
        f" -> {vs_threads:.2f}x",
    )

    # Process workers overlap pacing floors like threads do, but their
    # interpreter start-up is real CPU; on a 1-cpu container that
    # serializes against the suite itself, so the floor-overlap claim
    # needs at least a second core to be testable.
    if cpus >= 2:
        assert paced_speedup >= 2.0, (
            f"{FLEET_WORKERS} process workers should halve a paced campaign:"
            f" serial {serial_s:.2f}s vs {paced_s:.2f}s ({paced_speedup:.2f}x)"
        )
    # The cross-core claim needs actual cores to be testable.
    if cpus >= 4:
        assert vs_threads >= PROCESS_SPEEDUP_GATE, (
            f"on {cpus} cpus the processes backend should beat threads on"
            f" the CPU-bound suite: threads {threads_s:.2f}s vs processes"
            f" {procs_s:.2f}s ({vs_threads:.2f}x, target"
            f" {PROCESS_SPEEDUP_TARGET}x, gate {PROCESS_SPEEDUP_GATE}x)"
        )


def _executor_spec():
    """Process-worker spec running real planned recipes, exactly as the
    campaign runner builds it (module-level factory -> picklable)."""
    return ProcessWorkerSpec(
        target=_execute_job,
        context=RecipeExecutor(build_tree3_app, timeout=120.0),
        on_crash=_crashed_outcome,
    )


def test_warm_pool_amortizes_the_spawn_tax(report, bench_campaign):
    """Warm workers amortize the spawn tax across job waves without
    changing a result."""
    cpus = os.cpu_count() or 1
    plan = plan_campaign(tree3, seed=20, requests=REQUESTS).limit(8)
    jobs = [(entry, None) for entry in plan.entries]
    waves = 3

    # Cold: a fresh pool — freshly spawned interpreters — per wave.
    start = time.perf_counter()
    cold_waves = []
    for _ in range(waves):
        with ProcessPool(_executor_spec(), size=2) as pool:
            cold_waves.append(pool.run(jobs))
    cold_s = time.perf_counter() - start

    # Warm: one pool held open across the same waves.
    start = time.perf_counter()
    warm_waves = []
    with ProcessPool(_executor_spec(), size=2) as pool:
        for _ in range(waves):
            warm_waves.append(pool.run(jobs))
    warm_s = time.perf_counter() - start

    statuses = [cold_waves[0][position].status for position in range(len(jobs))]
    for wave in cold_waves + warm_waves:
        assert [wave[position].status for position in range(len(jobs))] == statuses

    # (The JSON key keeps its historical name: bench/README.md cites it.)
    bench_campaign["warm_and_batched"] = {
        "recipes_per_wave": len(jobs),
        "waves": waves,
        "workers": 2,
        "cpus": cpus,
        "cold_pools_s": round(cold_s, 3),
        "warm_pool_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 2),
    }
    report.add(
        "Campaign engine — warm workers",
        f"  {waves} waves x {len(jobs)} recipes: cold pools {cold_s:6.2f}s,"
        f" one warm pool {warm_s:6.2f}s -> {cold_s / warm_s:.2f}x",
    )

    # The spawn tax the warm pool saves is real CPU on any machine, but
    # on a loaded single-core container the measurement drowns in
    # scheduler noise, so the inequality is only gated with cores.
    if cpus >= 2:
        assert warm_s < cold_s, (
            f"a warm pool should beat respawning per wave: warm {warm_s:.2f}s"
            f" vs cold {cold_s:.2f}s"
        )

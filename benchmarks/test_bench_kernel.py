"""Simulation kernel: serial event-dispatch throughput.

Every campaign recipe and fuzz case bottoms out in the same loop —
``Simulator.run`` draining the scheduler and resuming generator
processes — so serial events/second is the one number every other
wall-clock figure in this suite scales with.  This benchmark pins the
hot-path work (the heap-plus-due-FIFO scheduler, one-frame event,
timeout and process construction, slotted events, the inlined run loop,
collapsed process resume) with two workloads:

* **timer storm** — hundreds of processes sleeping in staggered loops:
  pure scheduler churn plus generator resume, no conditions;
* **race storm** — processes racing an event against a timeout via
  ``AnyOf``: exercises condition callbacks and defusal, the shape every
  client-timeout pattern in the service layer reduces to.

Both scheduler lanes are measured: the default lane gates against the
baseline; the heap lane is recorded alongside (``default_vs_heap``).
This storm is not the drive path's shape: 200 sleepers on 7 delays put
≈28 events on every timestamp, the batching case a bucketed scheduler
wins, where request traffic has ≈1.7 per timestamp.  Read it as a floor
on the kernel, not as a forecast for a verdict.

``BASELINE_EVENTS_PER_S`` is the best-of-three rate measured on this
same workload immediately before the first optimization pass, on the
container that produced the first committed ``BENCH_kernel.json``; the
kernel must clear it by >= 50%.  Set ``KERNEL_BENCH_STRICT=0`` to record
numbers without gating on timing (CI smoke on shared runners, laptops
under load) — completion still gates.

Numbers land in ``BENCH_kernel.json`` via the session-finish hook in
``conftest.py``.
"""

import os
import time

from repro.simulation.kernel import Simulator

#: Best-of-three events/s on this workload, measured pre-optimization
#: (binary-heap scheduler, no pooling) on the container that produced
#: the committed JSON.  Only comparable on similar hardware — hence the
#: KERNEL_BENCH_STRICT escape hatch.
BASELINE_EVENTS_PER_S = 527_000
TARGET_IMPROVEMENT = 1.50

PROCS = 200
ITERS = 200
ROUNDS = 3


def timer_loop(sim, n, delay):
    for _ in range(n):
        yield sim.timeout(delay)


def race_loop(sim, n):
    for _ in range(n):
        response = sim.event()
        timeout = sim.timeout(2.0)
        if (n % 3) == 0:
            response.succeed("ok")
        yield sim.any_of([response, timeout])


def run_workload(procs=PROCS, iters=ITERS, scheduler=None):
    """One cold simulator, ~(procs * iters * 1.75) events; returns
    (event count, elapsed seconds)."""
    sim = Simulator(seed=7, scheduler=scheduler)
    events = 0
    for i in range(procs):
        sim.process(timer_loop(sim, iters, 0.5 + (i % 7) * 0.1))
        events += iters
    for _ in range(procs // 4):
        sim.process(race_loop(sim, iters))
        events += iters * 3
    start = time.perf_counter()
    sim.run()
    return events, time.perf_counter() - start


def test_kernel_event_throughput(report, bench_kernel):
    strict = os.environ.get("KERNEL_BENCH_STRICT", "1") != "0"

    best = 0.0
    rounds = []
    for _ in range(ROUNDS):
        events, elapsed = run_workload()
        rate = events / elapsed
        rounds.append(round(rate))
        best = max(best, rate)

    heap_best = 0.0
    for _ in range(ROUNDS):
        heap_events, heap_elapsed = run_workload(scheduler="heap")
        heap_best = max(heap_best, heap_events / heap_elapsed)

    improvement = best / BASELINE_EVENTS_PER_S
    bench_kernel.update(
        {
            "workload": {
                "timer_processes": PROCS,
                "race_processes": PROCS // 4,
                "iterations": ITERS,
                "events": events,
            },
            "cpus": os.cpu_count(),
            "scheduler": "default",
            "rounds_events_per_s": rounds,
            "best_events_per_s": round(best),
            "heap_best_events_per_s": round(heap_best),
            "default_vs_heap": round(best / heap_best, 2),
            "baseline_events_per_s": BASELINE_EVENTS_PER_S,
            "improvement": round(improvement, 2),
            "strict": strict,
        }
    )
    report.add(
        "simulation kernel — serial event throughput",
        f"  {events} events/round, best of {ROUNDS}: {best:,.0f} ev/s"
        f" (default) / {heap_best:,.0f} ev/s (heap lane)\n"
        f"  pre-optimization baseline: {BASELINE_EVENTS_PER_S:,} ev/s"
        f" -> {improvement:.2f}x",
    )

    assert best > 0
    if strict:
        assert improvement >= TARGET_IMPROVEMENT, (
            f"kernel hot path regressed: {best:,.0f} ev/s is only"
            f" {improvement:.2f}x the {BASELINE_EVENTS_PER_S:,} ev/s baseline"
            f" (need >= {TARGET_IMPROVEMENT}x; set KERNEL_BENCH_STRICT=0 on"
            f" hardware that is not comparable)"
        )

"""Production-scale benchmark apps: kernel throughput and campaign cost.

The DeathStarBench-class topologies (28-service ``socialnetwork``,
20-service ``hotelreservation``) exist to show the stack at the scale
the paper's target systems run at.  Two numbers pin that claim:

* **drive throughput** — kernel events/second while closed-loop
  traffic flows through the full 28-service graph (sidecars, tracing,
  log shipping all on).  Measured on the heap scheduler lane, whose
  monotone sequence counter doubles as an exact count of scheduled
  events.
* **campaign wall clock** — time to execute a slice of the
  auto-generated fault campaign against the same app, serial vs a
  4-worker thread fleet, with the determinism contract re-asserted
  (the fleet may change only wall-clock time).

Both are recorded for transparency, not gated: absolute numbers vary
with the container, and the regression gate for kernel throughput
lives in ``test_bench_kernel.py``.  Numbers land in ``BENCH_apps.json``
via the session-finish hook in ``conftest.py``.
"""

import os
import time

from repro.apps.hotelreservation import build_hotelreservation_app
from repro.apps.socialnetwork import build_socialnetwork_app
from repro.campaign import CampaignRunner, plan_campaign
from repro.loadgen import ClosedLoopLoad
from repro.simulation import Simulator

ROUNDS = 3
REQUESTS = 50
FLEET_WORKERS = 4
CAMPAIGN_REQUESTS = 5
CAMPAIGN_SLICE = 24


def drive(builder, entry, requests=REQUESTS):
    """Deploy the fragile build, push ``requests`` through the entry,
    and return (scheduled events, log records, elapsed seconds)."""
    deployment = builder().deploy(sim=Simulator(seed=0, scheduler="heap"))
    source = deployment.add_traffic_source(entry, name="user")
    load = ClosedLoopLoad(num_requests=requests, think_time=0.005)
    deployment.sim.process(load.driver(source), name="bench")
    start = time.perf_counter()
    deployment.sim.run()
    elapsed = time.perf_counter() - start
    # The heap lane's sequence counter ticks once per scheduled event.
    events = next(deployment.sim._counter)
    return events, len(deployment.store), elapsed


def test_production_app_drive_throughput(report, bench_apps):
    curves = {}
    for name, builder, entry in (
        ("socialnetwork", build_socialnetwork_app, "nginx"),
        ("hotelreservation", build_hotelreservation_app, "frontend"),
    ):
        best = None
        for _ in range(ROUNDS):
            events, records, elapsed = drive(builder, entry)
            rate = events / elapsed
            if best is None or rate > best["events_per_s"]:
                best = {
                    "events": events,
                    "records": records,
                    "elapsed_s": round(elapsed, 3),
                    "events_per_s": round(rate),
                    "requests_per_s": round(REQUESTS / elapsed, 1),
                }
        assert best["events"] > REQUESTS, "the graph did no work per request"
        assert best["records"] > 0, "nothing reached the log store"
        curves[name] = best

    bench_apps["drive"] = {
        "requests": REQUESTS,
        "rounds": ROUNDS,
        "scheduler": "heap",
        **curves,
    }
    report.add(
        "Production apps — closed-loop drive throughput",
        "\n".join(
            f"  {name}: {c['events']} events / {c['elapsed_s']:.2f}s"
            f" = {c['events_per_s']:,} ev/s"
            f" ({c['requests_per_s']} req/s, {c['records']} records)"
            for name, c in curves.items()
        ),
    )


def test_socialnetwork_campaign_wallclock(report, bench_apps):
    plan = plan_campaign(build_socialnetwork_app, seed=11, requests=CAMPAIGN_REQUESTS)
    full_size = len(plan)
    sliced = plan.limit(CAMPAIGN_SLICE)

    serial_runner = CampaignRunner(build_socialnetwork_app, workers=1, timeout=120.0)
    start = time.perf_counter()
    serial = serial_runner.run(sliced)
    serial_s = time.perf_counter() - start

    fleet_runner = CampaignRunner(
        build_socialnetwork_app, workers=FLEET_WORKERS, timeout=120.0
    )
    start = time.perf_counter()
    fleet = fleet_runner.run(sliced)
    fleet_s = time.perf_counter() - start

    # Determinism contract: the fleet changes wall-clock time, nothing else.
    assert [o.status for o in fleet.outcomes] == [o.status for o in serial.outcomes]

    bench_apps["campaign"] = {
        "app": "socialnetwork",
        "services": 28,
        "plan_recipes": full_size,
        "executed_recipes": len(sliced),
        "requests_per_recipe": CAMPAIGN_REQUESTS,
        "cpus": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "fleet_workers": FLEET_WORKERS,
        "fleet_s": round(fleet_s, 3),
        "per_recipe_s": round(serial_s / len(sliced), 3),
    }
    report.add(
        "Production apps — campaign wall clock on the 28-service socialnetwork",
        f"  {len(sliced)}/{full_size} recipes x {CAMPAIGN_REQUESTS} requests:"
        f" serial {serial_s:6.2f}s ({serial_s / len(sliced):.2f}s/recipe),"
        f" {FLEET_WORKERS} workers {fleet_s:6.2f}s",
    )

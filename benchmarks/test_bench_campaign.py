"""Campaign engine: fleet speedup on a paced campaign.

The campaign runner's claim is operational, not algorithmic: when each
experiment occupies a test slot for real wall-clock time (the
live-deployment regime the paper's Gremlin operates in — faults stay
staged while traffic flows, logs settle before assertions), a fleet of
N workers should finish a recipe suite close to N times faster than a
serial loop.  This benchmark pins that claim on the 42-recipe
auto-generated campaign for the depth-3 service tree (Fig 7's largest
multi-level topology), with a 0.3 s wall-clock floor per recipe
(``pacing``): the fleet must be >= 2x faster at 4 workers.  It is why
the ``threads`` backend exists; compute-bound campaigns are measured
by ``fleet_campaign`` in ``bench/``.

The determinism contract is re-asserted: the fleet must produce the
same per-recipe statuses as the serial run.

Numbers land in ``BENCH_campaign.json`` via the session-finish hook in
``conftest.py``.
"""

import time

from repro.campaign import CampaignRunner, plan_campaign
from repro.cli import build_tree3_app

FLEET_WORKERS = 4
PACING = 0.3
REQUESTS = 10


def run_campaign(plan, *, workers):
    runner = CampaignRunner(build_tree3_app, workers=workers, pacing=PACING, timeout=120.0)
    start = time.perf_counter()
    result = runner.run(plan)
    return result, time.perf_counter() - start


def test_fleet_speedup_on_paced_campaign(report, bench_file):
    plan = plan_campaign(build_tree3_app, seed=20, requests=REQUESTS)
    assert len(plan) >= 40, "speedup claim is about campaign-sized suites"

    serial_result, serial_s = run_campaign(plan, workers=1)
    fleet_result, fleet_s = run_campaign(plan, workers=FLEET_WORKERS)

    # Determinism contract: the fleet changes wall-clock time, nothing else.
    assert [o.status for o in serial_result.outcomes] == [
        o.status for o in fleet_result.outcomes
    ]

    speedup = serial_s / fleet_s
    bench_file("BENCH_campaign.json").update(
        {
            "app": "tree3",
            "recipes": len(plan),
            "requests_per_recipe": REQUESTS,
            "workers": FLEET_WORKERS,
            "pacing_s": PACING,
            "paced": {
                "serial_s": round(serial_s, 3),
                "fleet_s": round(fleet_s, 3),
                "speedup": round(speedup, 2),
            },
        }
    )
    report.add(
        "Campaign engine — fleet speedup on the 42-recipe tree3 suite",
        f"  paced ({PACING:.1f}s/recipe floor): serial {serial_s:6.2f}s,"
        f" {FLEET_WORKERS} workers {fleet_s:6.2f}s -> {speedup:.2f}x",
    )

    assert speedup >= 2.0, (
        f"fleet of {FLEET_WORKERS} should halve a paced campaign:"
        f" serial {serial_s:.2f}s vs fleet {fleet_s:.2f}s ({speedup:.2f}x)"
    )

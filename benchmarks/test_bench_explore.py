"""Exploration efficacy: prioritized search vs the random baseline.

The exploration subsystem's claim is not raw speed but *sample
efficiency*: given the same discovered coordinate universe, the same
seed, and the same execution budget, the prioritized frontier (FastFI
per-edge sweeps, primitive banding, blast-radius ranking, trace-shape
feedback, masking-based pruning) must reach every planted bug in the
seeded-bug suite using **at most half** the fault executions the
unprioritized random order needs.  Both strategies run to first
full-discovery (``stop_when_found``), so the measured quantity is
executions-to-all-bugs, summed across the three seeded apps.

Also recorded per app: coordinates enumerated/executed/pruned, trace
shapes seen beyond the fault-free baseline, and which coordinate
surfaced each bug.  Every number is a count, deterministic for the
seed and budget.  Numbers land in ``BENCH_explore.json`` via the
session-finish hook in ``conftest.py``.
"""

from repro.explore import run_explore

SEED = 0
#: The three small seeded-bug apps, as in ``bench/``'s ``explore_seeded``;
#: the production-scale entries of ``SEEDED_BUG_SUITE`` are not part of
#: this comparison.
SEEDED_APPS = ("deepfanout", "retrystorm", "stuckbreaker")
BUDGET = 150
MAX_RATIO = 0.5


def test_prioritized_halves_executions_to_all_bugs(report, bench_file):
    per_app: dict = {}
    totals = {"prioritized": 0, "random": 0}
    for app in SEEDED_APPS:
        per_app[app] = {}
        for strategy in ("prioritized", "random"):
            result = run_explore(
                app, budget=BUDGET, seed=SEED, strategy=strategy,
                stop_when_found=True,
            )
            assert result.all_bugs_found, (
                f"{strategy} missed bugs on {app}: {result.report.render()}"
            )
            totals[strategy] += result.executions_to_all_bugs
            doc = result.report.to_dict()
            per_app[app][strategy] = {
                "executions_to_all_bugs": result.executions_to_all_bugs,
                "executed": doc["executed"],
                "pruned": doc["pruned"],
                "coordinates_enumerated": doc["coordinates_enumerated"],
                "baseline_shapes": doc["baseline_shapes"],
                "shapes_seen": doc["shapes_seen"],
                "findings": doc["findings"],
            }

    ratio = totals["prioritized"] / totals["random"]
    assert ratio <= MAX_RATIO, (
        f"prioritized needed {totals['prioritized']} executions vs"
        f" random's {totals['random']} (ratio {ratio:.2f} > {MAX_RATIO})"
    )

    bench_file("BENCH_explore.json").update(
        {
            "seed": SEED,
            "budget": BUDGET,
            "apps": per_app,
            "prioritized_total": totals["prioritized"],
            "random_total": totals["random"],
            "ratio": round(ratio, 4),
            "max_ratio": MAX_RATIO,
        }
    )
    lines = [
        f"{'app':14s} {'prioritized':>11s} {'random':>7s}",
        *(
            f"{app:14s} {per_app[app]['prioritized']['executions_to_all_bugs']:>11d}"
            f" {per_app[app]['random']['executions_to_all_bugs']:>7d}"
            for app in sorted(per_app)
        ),
        f"{'TOTAL':14s} {totals['prioritized']:>11d} {totals['random']:>7d}"
        f"   ratio={ratio:.2f} (required <= {MAX_RATIO})",
    ]
    report.add("exploration: executions to find all planted bugs", "\n".join(lines))

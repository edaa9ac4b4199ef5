"""Regression: campaign planning and execution are seed-deterministic.

The campaign contract (see ``repro/campaign/runner.py``) is that a
plan depends only on ``(factory, master seed, knobs)`` and an outcome
only on ``(factory, recipe, seed)``.  These tests pin both halves: the
planner must emit the identical ordered, deduplicated, seeded plan on
every invocation, and running that plan must produce identical
outcomes whatever the worker count — and, since the fleet grew a
``processes`` backend, whatever the execution backend.
"""

from repro.apps import build_twotier, build_wordpress_app
from repro.campaign import CampaignRunner, diff_campaigns, plan_campaign


def plan_fingerprint(plan):
    """Everything that identifies a plan: order, dedup, names, seeds."""
    return (
        plan.name,
        plan.app,
        plan.seed,
        plan.deduplicated,
        tuple(
            (
                entry.index,
                entry.name,
                entry.pattern,
                entry.service,
                entry.seed,
                entry.load,
                tuple(s.describe() for s in entry.recipe.scenarios),
                tuple(type(c).__name__ for c in entry.recipe.checks),
            )
            for entry in plan.entries
        ),
    )


def outcome_fingerprint(result):
    return tuple(
        (
            outcome.index,
            outcome.name,
            outcome.status,
            outcome.seed,
            tuple((check.name, check.passed, check.inconclusive) for check in outcome.checks),
            tuple(round(latency, 9) for latency in outcome.latencies),
        )
        for outcome in result.outcomes
    )


class TestPlanDeterminism:
    def test_same_seed_identical_plan(self):
        plans = [plan_campaign(build_wordpress_app, seed=5) for _ in range(3)]
        fingerprints = {plan_fingerprint(plan) for plan in plans}
        assert len(fingerprints) == 1
        # Indices are dense and ordered; seeds are pinned per name.
        plan = plans[0]
        assert [entry.index for entry in plan.entries] == list(range(len(plan.entries)))

    def test_different_seed_same_structure_different_seeds(self):
        base = plan_campaign(build_wordpress_app, seed=5)
        other = plan_campaign(build_wordpress_app, seed=6)
        assert [e.name for e in base.entries] == [e.name for e in other.entries]
        assert [e.seed for e in base.entries] != [e.seed for e in other.entries]

    def test_dedup_is_stable(self):
        first = plan_campaign(build_wordpress_app, seed=5)
        second = plan_campaign(build_wordpress_app, seed=5)
        assert first.deduplicated == second.deduplicated
        names = [entry.name for entry in first.entries]
        assert len(names) == len(set(names))


class TestExecutionDeterminism:
    def test_outcomes_identical_across_worker_counts(self):
        plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)
        results = [
            CampaignRunner(build_twotier, workers=workers, timeout=None).run(plan)
            for workers in (1, 2, 5)
        ]
        fingerprints = {outcome_fingerprint(result) for result in results}
        assert len(fingerprints) == 1

    def test_outcomes_identical_across_repeat_runs(self):
        plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=4)
        runner = CampaignRunner(build_twotier, workers=3, timeout=None)
        assert outcome_fingerprint(runner.run(plan)) == outcome_fingerprint(
            runner.run(plan)
        )


def outcome_doc(outcome):
    """An outcome's full serialized form minus what legitimately varies
    between runs: wall-clock timings and worker attribution."""
    doc = outcome.to_dict()
    for volatile in ("wall_time", "orchestration_time", "assertion_time", "worker"):
        doc.pop(volatile, None)
    return doc


class TestBackendEquivalence:
    """The ``processes`` backend is an execution detail, not a semantic
    one: everything a campaign reports — statuses, checks, metrics
    snapshots, fault attributions, scorecards, diff verdicts — must be
    bit-for-bit identical to the thread backend at any worker count.

    ``build_twotier`` is module-level (picklable), which is all the
    process backend asks of a factory.
    """

    def test_full_outcome_docs_identical_across_backends_and_workers(self):
        plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)
        baseline = CampaignRunner(build_twotier, workers=1, timeout=None).run(plan)
        docs = [outcome_doc(o) for o in baseline.outcomes]
        for backend, workers in (("threads", 3), ("processes", 1), ("processes", 3)):
            result = CampaignRunner(
                build_twotier, workers=workers, timeout=None, backend=backend
            ).run(plan)
            assert [outcome_doc(o) for o in result.outcomes] == docs, (
                backend,
                workers,
            )

    def test_scorecard_and_diff_verdicts_agree_across_backends(self):
        plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)
        threads = CampaignRunner(build_twotier, workers=2, timeout=None).run(plan)
        procs = CampaignRunner(
            build_twotier, workers=2, timeout=None, backend="processes"
        ).run(plan)
        assert threads.scorecard().text() == procs.scorecard().text()
        # A regression diff across backends of the same plan+seed must
        # be a no-op in both directions.
        assert diff_campaigns(threads, procs).clean
        assert diff_campaigns(procs, threads).clean

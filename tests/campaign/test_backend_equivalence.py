"""Byte-equality across fleet backends and worker counts.

The processes backend pickles every outcome through a worker pipe and
rebuilds it in the parent, so this suite pins the strongest possible
claim: campaign scorecards, campaign dumps, and explore digests are
*byte-identical* to the serial reference at 1 and 4 workers on both
fleet backends.  Dump JSON is compared after
stripping only the fields that legitimately vary between any two runs
(wall-clock timings, worker attribution) — everything else, float
bits included, must match exactly.
"""

import json

import pytest

from repro.apps import build_twotier
from repro.campaign import CampaignRunner, dumps, plan_campaign

LANES = [
    (backend, workers)
    for backend in ("threads", "processes")
    for workers in (1, 4)
]

#: Fields that legitimately differ between lanes: wall-clock timings,
#: worker attribution, the configured fleet size itself, and the dump
#: trailer's digest (it covers the timings; its record count stays).
VOLATILE = (
    "wall_time", "orchestration_time", "assertion_time", "worker", "workers", "sha256"
)


def normalized_dump_bytes(result):
    """The campaign dump with per-run timing variance removed, re-frozen
    to canonical bytes so comparison is exact, not approximate."""
    lines = []
    for line in dumps(result).splitlines():
        doc = json.loads(line)
        for key in VOLATILE:
            doc.pop(key, None)
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def plan():
    return plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)


@pytest.fixture(scope="module")
def reference(plan):
    result = CampaignRunner(build_twotier, workers=1, timeout=None).run(plan)
    return result.scorecard().text().encode("utf-8"), normalized_dump_bytes(result)


class TestCampaignByteEquality:
    @pytest.mark.parametrize(
        "backend, workers", LANES, ids=[f"{b}-w{w}" for b, w in LANES]
    )
    def test_scorecard_and_dump_identical(self, plan, reference, backend, workers):
        result = CampaignRunner(
            build_twotier,
            workers=workers,
            timeout=None,
            backend=backend,
        ).run(plan)
        scorecard_bytes, dump_bytes = reference
        assert result.scorecard().text().encode("utf-8") == scorecard_bytes
        assert normalized_dump_bytes(result) == dump_bytes


class TestExploreByteEquality:
    @pytest.mark.slow
    def test_digests_identical_across_lanes(self):
        from repro.explore import run_explore

        executed = {}
        for backend, workers in LANES:
            result = run_explore(
                "stuckbreaker",
                budget=12,
                seed=0,
                workers=workers,
                backend=backend,
            )
            executed[(backend, workers)] = result.executed
        assert len({tuple(v) for v in executed.values()}) == 1, executed.keys()

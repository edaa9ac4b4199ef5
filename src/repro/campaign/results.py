"""Campaign result model: per-recipe outcomes and their aggregate.

Everything here is plain serializable data — the runner produces it,
the scorecard/diff/io layers consume it.  Keeping live objects
(deployments, recipes, stores) out of the result model is what lets a
campaign be dumped to JSON-lines, reloaded in another process or on
another revision, and diffed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.patterns import CheckResult
from repro.util import plain

__all__ = [
    "CheckOutcome",
    "RecipeOutcome",
    "CampaignResult",
    "STATUS_ORDER",
    "CONCLUSIVE_FAILURES",
]

#: Every status a recipe execution can end in, in report order.
STATUS_ORDER = ("pass", "fail", "inconclusive", "timeout", "error", "skipped")

#: Statuses that count as the campaign finding (or hitting) a problem.
CONCLUSIVE_FAILURES = frozenset({"fail", "timeout", "error"})


@dataclasses.dataclass
class CheckOutcome:
    """One pattern check's verdict, detached from live check objects."""

    name: str
    passed: bool
    inconclusive: bool
    detail: str

    @classmethod
    def from_result(cls, result: CheckResult) -> "CheckOutcome":
        return cls(
            name=result.name,
            passed=result.passed,
            inconclusive=result.inconclusive,
            detail=result.detail,
        )

    def to_dict(self) -> dict:
        return plain(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "CheckOutcome":
        return cls(**doc)


@dataclasses.dataclass
class RecipeOutcome:
    """Everything one planned recipe's execution produced.

    ``status`` is one of :data:`STATUS_ORDER`:

    * ``pass`` — every check passed;
    * ``fail`` — at least one check failed conclusively;
    * ``inconclusive`` — nothing failed conclusively but some check
      lacked evidence (fault not exercised);
    * ``timeout`` — the recipe exceeded its wall-clock budget;
    * ``error`` — the execution raised;
    * ``skipped`` — fail-fast stopped the campaign before this entry ran.

    ``attempts`` records the status of the initial run plus every
    flake-detection rerun; ``classification`` summarizes them as
    ``"broken"`` (failed every reseeded rerun) or ``"flaky"`` (passed
    at least one).

    ``metrics`` is the recipe deployment's metrics snapshot (plain
    data, see :mod:`repro.observability.metrics`); snapshots from all
    outcomes merge into the campaign-wide view.  ``attributions`` are
    serialized :class:`~repro.observability.attribution.FaultAttribution`
    dicts produced for failing recipes: which injected fault caused
    each failed request and how it propagated.
    """

    index: int
    name: str
    pattern: str
    service: str
    seed: int
    status: str
    checks: list[CheckOutcome] = dataclasses.field(default_factory=list)
    orchestration_time: float = 0.0
    assertion_time: float = 0.0
    wall_time: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    latencies: list[float] = dataclasses.field(default_factory=list)
    error: _t.Optional[str] = None
    attempts: list[str] = dataclasses.field(default_factory=list)
    classification: _t.Optional[str] = None
    worker: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    attributions: list[dict] = dataclasses.field(default_factory=list)

    @property
    def conclusive_failure(self) -> bool:
        """True when this outcome should fail the campaign."""
        return self.status in CONCLUSIVE_FAILURES

    def to_dict(self) -> dict:
        doc = plain(self)
        doc["window"] = list(doc["window"])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RecipeOutcome":
        doc = dict(doc)
        doc["window"] = tuple(doc.get("window", (0.0, 0.0)))
        doc["checks"] = [CheckOutcome.from_dict(c) for c in doc.get("checks", [])]
        return cls(**doc)


@dataclasses.dataclass
class CampaignResult:
    """Aggregate of one campaign execution."""

    name: str
    app: str
    seed: int
    workers: int
    outcomes: list[RecipeOutcome]
    wall_time: float = 0.0
    #: Reruns attempted per failed recipe during flake detection.
    rerun_failures: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def counts(self) -> dict[str, int]:
        """Status -> number of recipes, every status always present."""
        counts = {status: 0 for status in STATUS_ORDER}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def passed(self) -> bool:
        """True when no recipe failed conclusively."""
        return not any(outcome.conclusive_failure for outcome in self.outcomes)

    @property
    def failures(self) -> list[RecipeOutcome]:
        """Outcomes that failed conclusively, in plan order."""
        return [outcome for outcome in self.outcomes if outcome.conclusive_failure]

    @property
    def flaky(self) -> list[RecipeOutcome]:
        """Failures that passed at least one reseeded rerun."""
        return [o for o in self.outcomes if o.classification == "flaky"]

    @property
    def broken(self) -> list[RecipeOutcome]:
        """Failures that failed every reseeded rerun."""
        return [o for o in self.outcomes if o.classification == "broken"]

    def outcome(self, name: str) -> RecipeOutcome:
        """Look up one outcome by recipe name."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no outcome named {name!r}")

    def scorecard(self):
        """Per-service / per-pattern aggregation (lazy import avoids a
        module cycle: the scorecard renders this result model)."""
        from repro.campaign.scorecard import Scorecard

        return Scorecard.from_outcomes(self.outcomes)

    def resilience_report(self):
        """Full cascade analysis of this campaign (lazy import, same
        reasoning as :meth:`scorecard`): dependency graph, blast radii,
        ranked root causes, and the JSON/HTML report artifact."""
        from repro.observability.cascade.report import build_report

        return build_report(self)

    def merged_metrics(self) -> dict:
        """Campaign-wide metrics: every recipe's snapshot folded.

        Each recipe ran on its own deployment with its own registry;
        because snapshots merge associatively, the campaign total is
        independent of worker count and execution order — the same
        determinism contract the outcomes themselves carry.
        """
        from repro.observability.metrics import merge_snapshots

        return merge_snapshots(*(o.metrics for o in self.outcomes if o.metrics))

    def summary(self) -> str:
        """One-line totals for CLI output."""
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in STATUS_ORDER if counts[s]]
        flaky, broken = len(self.flaky), len(self.broken)
        if flaky:
            parts.append(f"{flaky} flaky")
        if broken:
            parts.append(f"{broken} broken")
        return (
            f"{self.name}: {len(self.outcomes)} recipes — "
            + ", ".join(parts)
            + f" ({self.wall_time:.2f}s wall, {self.workers} workers)"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "app": self.app,
            "seed": self.seed,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "rerun_failures": self.rerun_failures,
            "counts": self.counts(),
            "passed": self.passed,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignResult":
        return cls(
            name=doc["name"],
            app=doc["app"],
            seed=doc["seed"],
            workers=doc["workers"],
            wall_time=doc.get("wall_time", 0.0),
            rerun_failures=doc.get("rerun_failures", 0),
            outcomes=[RecipeOutcome.from_dict(o) for o in doc.get("outcomes", [])],
        )

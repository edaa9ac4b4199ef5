"""Campaign-to-campaign diffing: regression detection between revisions.

Run the same plan on two code revisions (or two configurations), dump
both results, and diff them: recipes that flipped pass -> fail are
regressions, fail -> pass are fixes, and the pooled end-to-end latency
samples are compared with the Kolmogorov-Smirnov machinery from
:mod:`repro.analysis.compare` — a recipe suite can keep passing while
the latency distribution quietly walks right, and the KS test is what
catches that.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.compare import CdfComparison, compare_cdfs
from repro.campaign.results import CONCLUSIVE_FAILURES, CampaignResult
from repro.errors import AnalysisError, CampaignError
from repro.util import plain

__all__ = ["StatusChange", "CampaignDiff", "diff_campaigns"]


@dataclasses.dataclass(frozen=True)
class StatusChange:
    """One recipe whose status differs between the two campaigns."""

    name: str
    baseline: str
    candidate: str

    def __str__(self) -> str:
        return f"{self.name}: {self.baseline} -> {self.candidate}"

    def to_dict(self) -> dict:
        return plain(self)


@dataclasses.dataclass
class CampaignDiff:
    """Everything that changed between a baseline and a candidate run."""

    baseline: str
    candidate: str
    #: pass (baseline) -> conclusive failure (candidate).
    regressions: list[StatusChange]
    #: conclusive failure (baseline) -> pass (candidate).
    fixes: list[StatusChange]
    #: Status changed some other way (e.g. inconclusive -> pass).
    other_changes: list[StatusChange]
    #: Recipe names only present in the candidate / only in the baseline.
    added: list[str]
    removed: list[str]
    #: Recipes newly classified flaky in the candidate.
    newly_flaky: list[str]
    #: KS comparison of pooled load latencies (None when either side
    #: recorded no samples, or when the comparison failed).
    latency: _t.Optional[CdfComparison]
    #: Why the latency comparison failed (scipy not installed, NaN
    #: samples); the status half of the diff is still complete.
    latency_error: _t.Optional[str] = None

    @property
    def has_regressions(self) -> bool:
        """True when the candidate broke something the baseline passed."""
        return bool(self.regressions)

    @property
    def clean(self) -> bool:
        """True when nothing at all changed between the runs."""
        return not (
            self.regressions
            or self.fixes
            or self.other_changes
            or self.added
            or self.removed
            or self.newly_flaky
        )

    def text(self) -> str:
        """Human-readable multi-line diff report."""
        lines = [f"campaign diff: {self.baseline!r} -> {self.candidate!r}"]
        for label, changes in (
            ("regressions", self.regressions),
            ("fixes", self.fixes),
            ("other status changes", self.other_changes),
        ):
            lines.append(f"  {label}: {len(changes)}")
            for change in changes:
                lines.append(f"    {change}")
        if self.newly_flaky:
            lines.append(f"  newly flaky: {', '.join(self.newly_flaky)}")
        if self.added:
            lines.append(f"  recipes added: {', '.join(self.added)}")
        if self.removed:
            lines.append(f"  recipes removed: {', '.join(self.removed)}")
        if self.latency is not None:
            same = self.latency.same_distribution()
            lines.append(
                f"  latency: {self.latency}"
                f" ({'indistinguishable' if same else 'distribution shifted'})"
            )
        if self.latency_error is not None:
            lines.append(f"  latency: not compared ({self.latency_error})")
        if self.clean:
            lines.append("  no differences")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "regressions": [c.to_dict() for c in self.regressions],
            "fixes": [c.to_dict() for c in self.fixes],
            "other_changes": [c.to_dict() for c in self.other_changes],
            "added": self.added,
            "removed": self.removed,
            "newly_flaky": self.newly_flaky,
            "latency": plain(self.latency),
            "latency_error": self.latency_error,
            "has_regressions": self.has_regressions,
        }


def diff_campaigns(
    baseline: CampaignResult, candidate: CampaignResult
) -> CampaignDiff:
    """Compare two campaign results of one app recipe by recipe; two
    different apps are refused with :class:`CampaignError`."""
    if baseline.app != candidate.app:
        raise CampaignError(
            f"cannot diff campaigns of different apps:"
            f" baseline {baseline.app!r}, candidate {candidate.app!r}"
        )
    base_by_name = {outcome.name: outcome for outcome in baseline.outcomes}
    cand_by_name = {outcome.name: outcome for outcome in candidate.outcomes}

    regressions: list[StatusChange] = []
    fixes: list[StatusChange] = []
    other_changes: list[StatusChange] = []
    newly_flaky: list[str] = []
    for name in sorted(set(base_by_name) & set(cand_by_name)):
        old, new = base_by_name[name], cand_by_name[name]
        if old.status != new.status:
            change = StatusChange(name, old.status, new.status)
            if old.status == "pass" and new.status in CONCLUSIVE_FAILURES:
                regressions.append(change)
            elif old.status in CONCLUSIVE_FAILURES and new.status == "pass":
                fixes.append(change)
            else:
                other_changes.append(change)
        if new.classification == "flaky" and old.classification != "flaky":
            newly_flaky.append(name)

    base_latencies = [
        sample for outcome in baseline.outcomes for sample in outcome.latencies
    ]
    cand_latencies = [
        sample for outcome in candidate.outcomes for sample in outcome.latencies
    ]
    latency = latency_error = None
    if base_latencies and cand_latencies:
        try:
            latency = compare_cdfs(base_latencies, cand_latencies)
        except AnalysisError as exc:
            latency_error = str(exc)

    return CampaignDiff(
        baseline=baseline.name,
        candidate=candidate.name,
        regressions=regressions,
        fixes=fixes,
        other_changes=other_changes,
        added=sorted(set(cand_by_name) - set(base_by_name)),
        removed=sorted(set(base_by_name) - set(cand_by_name)),
        newly_flaky=newly_flaky,
        latency=latency,
        latency_error=latency_error,
    )

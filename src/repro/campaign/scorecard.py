"""Resilience scorecards: campaign outcomes folded per service/pattern.

A campaign answers 40 small questions ("does the webapp bound its
retries against the database?"); the scorecard folds them into the one
table an operator actually reads: for each service, which resiliency
patterns held under fault and which did not, rendered as an aligned
plain-text table (:func:`text_table`).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.campaign.plan import PATTERN_RANK
from repro.campaign.results import RecipeOutcome
from repro.util import plain

__all__ = ["PatternScore", "Scorecard", "text_table"]


def text_table(
    headers: _t.Sequence[str],
    rows: _t.Sequence[_t.Sequence[_t.Any]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table.

    >>> print(text_table(["a", "b"], [[1, 2]]))
    a | b
    --+--
    1 | 2
    """
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


@dataclasses.dataclass
class PatternScore:
    """Tally of one (service, pattern) cell."""

    total: int = 0
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0
    flaky: int = 0
    broken: int = 0
    #: timeout / error / skipped outcomes — executions, not verdicts.
    unscored: int = 0

    def add(self, outcome: RecipeOutcome) -> None:
        self.total += 1
        if outcome.status == "pass":
            self.passed += 1
        elif outcome.status == "fail":
            self.failed += 1
            if outcome.classification == "flaky":
                self.flaky += 1
            elif outcome.classification == "broken":
                self.broken += 1
        elif outcome.status == "inconclusive":
            self.inconclusive += 1
        else:
            self.unscored += 1

    def merge(self, other: "PatternScore") -> None:
        for field in dataclasses.fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    @property
    def conclusive(self) -> int:
        """Executions that produced a verdict either way."""
        return self.passed + self.failed

    def cell(self) -> str:
        """Compact table cell: ``passed/total`` plus markers —
        ``~`` flaky, ``!`` broken, ``?`` inconclusive present."""
        if self.total == 0:
            return "-"
        marks = ""
        if self.flaky:
            marks += "~"
        if self.broken:
            marks += "!"
        if self.inconclusive:
            marks += "?"
        return f"{self.passed}/{self.total}{marks}"

    def to_dict(self) -> dict:
        return plain(self)


class Scorecard:
    """Per-service / per-pattern aggregation of campaign outcomes."""

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], PatternScore] = {}
        #: (recipe name, serialized FaultAttribution dict) per failing
        #: recipe — the "why" behind every failed cell.
        self.attributions: list[tuple[str, dict]] = []

    @classmethod
    def from_outcomes(cls, outcomes: _t.Iterable[RecipeOutcome]) -> "Scorecard":
        card = cls()
        for outcome in outcomes:
            card.add(outcome)
        return card

    def add(self, outcome: RecipeOutcome) -> None:
        key = (outcome.service, outcome.pattern)
        score = self.cells.get(key)
        if score is None:
            score = self.cells[key] = PatternScore()
        score.add(outcome)
        for attribution in outcome.attributions:
            self.attributions.append((outcome.name, attribution))

    @property
    def services(self) -> list[str]:
        """All scored services, sorted."""
        return sorted({service for service, _ in self.cells})

    @property
    def patterns(self) -> list[str]:
        """All scored patterns, hard failures first."""
        return sorted(
            {pattern for _, pattern in self.cells},
            key=lambda p: (PATTERN_RANK.get(p, 99), p),
        )

    def service_score(self, service: str) -> PatternScore:
        """All of one service's cells merged."""
        merged = PatternScore()
        for (svc, _), score in self.cells.items():
            if svc == service:
                merged.merge(score)
        return merged

    def pattern_score(self, pattern: str) -> PatternScore:
        """All of one pattern's cells merged."""
        merged = PatternScore()
        for (_, pat), score in self.cells.items():
            if pat == pattern:
                merged.merge(score)
        return merged

    def service_verdicts(self) -> dict[str, str]:
        """Per-service verdict for the resilience report.

        * ``vulnerable`` — at least one deterministic failure (a failed
          cell that no reseeded rerun passed);
        * ``at-risk`` — only flaky failures, or inconclusive/unscored
          executions clouding the evidence;
        * ``resilient`` — every conclusive execution passed;
        * ``untested`` — no executions produced a verdict at all.
        """
        verdicts: dict[str, str] = {}
        for service in self.services:
            merged = self.service_score(service)
            if merged.failed > merged.flaky:
                verdicts[service] = "vulnerable"
            elif merged.flaky or merged.inconclusive or merged.unscored:
                verdicts[service] = "at-risk"
            elif merged.passed:
                verdicts[service] = "resilient"
            else:
                verdicts[service] = "untested"
        return verdicts

    def totals(self) -> PatternScore:
        """Everything merged — the campaign's headline numbers."""
        merged = PatternScore()
        for score in self.cells.values():
            merged.merge(score)
        return merged

    def text(self, title: _t.Optional[str] = "resilience scorecard") -> str:
        """Render as an aligned table (one row per service).

        Cell legend: ``passed/total``, ``~`` flaky, ``!`` broken,
        ``?`` inconclusive, ``-`` pattern not tested on that service.
        """
        patterns = self.patterns
        empty = PatternScore()
        rows = []
        for service in self.services:
            row: list[str] = [service]
            for pattern in patterns:
                row.append(self.cells.get((service, pattern), empty).cell())
            merged = self.service_score(service)
            row.append(
                f"{merged.passed}/{merged.conclusive}"
                if merged.conclusive
                else "-"
            )
            rows.append(row)
        total_row: list[str] = ["TOTAL"]
        for pattern in patterns:
            total_row.append(self.pattern_score(pattern).cell())
        totals = self.totals()
        total_row.append(
            f"{totals.passed}/{totals.conclusive}" if totals.conclusive else "-"
        )
        rows.append(total_row)
        table = text_table(["service"] + patterns + ["score"], rows, title=title)
        if not self.attributions:
            return table
        return table + "\n" + self.attribution_section()

    def attribution_section(self, limit: int = 10) -> str:
        """Human-readable fault attributions for the failed cells.

        One line per (recipe, attribution): the injected fault, the
        rule that fired, and the propagation path to the entry edge —
        so the operator reads *why* a cell failed without re-running
        anything.
        """
        from repro.observability.attribution import FaultAttribution

        lines = ["fault attribution (failed recipes):"]
        for recipe_name, doc in self.attributions[:limit]:
            attribution = FaultAttribution.from_dict(doc)
            lines.append(f"  {recipe_name} :: {attribution.describe()}")
        hidden = len(self.attributions) - limit
        if hidden > 0:
            lines.append(f"  ... and {hidden} more (see the campaign dump)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "services": {
                service: {
                    pattern: self.cells[(service, pattern)].to_dict()
                    for pattern in self.patterns
                    if (service, pattern) in self.cells
                }
                for service in self.services
            },
            "totals": self.totals().to_dict(),
        }

    def __repr__(self) -> str:
        totals = self.totals()
        return (
            f"<Scorecard services={len(self.services)}"
            f" recipes={totals.total} passed={totals.passed}>"
        )

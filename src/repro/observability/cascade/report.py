"""The operator resilience report: one artifact per campaign.

Everything the cascade tier computes — the discovered dependency
graph, per-service blast radii, ranked root causes, what-if blast
predictions — plus the scorecard verdicts, folded into a single
:class:`ResilienceReport`.  It serializes two ways:

* **JSON** (:meth:`ResilienceReport.to_json`) — deterministic: keys
  sorted, timing/worker fields excluded, so the same campaign seed
  produces a byte-identical report on any backend at any worker count
  (the same contract the outcomes themselves carry).
* **HTML** (:meth:`ResilienceReport.to_html`) — a self-contained
  static page (inline CSS, inline SVG cascade diagram, no external
  assets) with per-service verdicts, ranked root causes, and blast
  tables.  Open the file; nothing else to deploy.

:func:`build_report` builds one from a live or reloaded
:class:`~repro.campaign.results.CampaignResult`;
:func:`build_explore_report` from an exploration's
:class:`~repro.explore.coverage.CoverageReport`.  The CLI wires both
through ``--report-out`` and the ``repro report`` subcommand.
"""

from __future__ import annotations

import dataclasses
import html as _html
import json
import math
import typing as _t

from repro.artifact import write_atomic
from repro.observability.cascade.blast import BlastRadius, blast_radius
from repro.observability.cascade.graph import DependencyGraph, graph_from_campaign
from repro.observability.cascade.rootcause import RootCauseCandidate, rank_root_causes
from repro.observability.cascade.whatif import predict_service_blast

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.results import CampaignResult
    from repro.explore.coverage import CoverageReport

__all__ = [
    "ResilienceReport",
    "build_report",
    "build_explore_report",
    "VERDICT_COLORS",
]

#: Report document format version (bumped on schema changes).
REPORT_VERSION = 1

#: Verdict -> diagram/badge color (GitHub's palette; colorblind-safe
#: enough at these four hues with the verdict word always alongside).
VERDICT_COLORS = {
    "resilient": "#2da44e",
    "at-risk": "#d4a72c",
    "vulnerable": "#cf222e",
    "untested": "#8b949e",
}


@dataclasses.dataclass
class ResilienceReport:
    """One campaign's (or exploration's) full cascade analysis."""

    #: Campaign/exploration name.
    name: str
    app: str
    seed: int
    #: ``"campaign"`` or ``"explore"`` — what produced the data.
    source: str
    #: Recipe status -> count (campaign) or execution tallies (explore).
    counts: _t.Dict[str, int]
    passed: bool
    #: Service -> resilient / at-risk / vulnerable / untested.
    verdicts: _t.Dict[str, str]
    graph: DependencyGraph
    #: Service -> observed blast radius (failing services only).
    blast: _t.Dict[str, BlastRadius]
    #: Failed check -> ranked culprit candidates.
    root_causes: _t.Dict[str, _t.List[RootCauseCandidate]]
    #: Per-service what-if blast predictions over the graph.
    predictions: _t.List[dict]
    #: Deterministic per-recipe rows (no timing/worker fields).
    recipes: _t.List[dict] = dataclasses.field(default_factory=list)
    #: Scorecard cells (campaign source only).
    scorecard: _t.Optional[dict] = None
    #: Coverage document (explore source only).
    exploration: _t.Optional[dict] = None

    def to_dict(self) -> dict:
        """Plain-data document; deterministic by construction (every
        non-deterministic execution field was excluded upstream)."""
        return {
            "report": "resilience",
            "version": REPORT_VERSION,
            "name": self.name,
            "app": self.app,
            "seed": self.seed,
            "source": self.source,
            "counts": dict(sorted(self.counts.items())),
            "passed": self.passed,
            "verdicts": dict(sorted(self.verdicts.items())),
            "graph": self.graph.to_dict(),
            "blast": {name: b.to_dict() for name, b in sorted(self.blast.items())},
            "root_causes": {
                check: [candidate.to_dict() for candidate in candidates]
                for check, candidates in sorted(self.root_causes.items())
            },
            "predictions": list(self.predictions),
            "recipes": list(self.recipes),
            "scorecard": self.scorecard,
            "exploration": self.exploration,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        """Write JSON for ``*.json`` paths, standalone HTML otherwise."""
        write_atomic(path, self.to_json() if path.endswith(".json") else self.to_html())

    # ------------------------------------------------------------- HTML

    def to_html(self) -> str:
        e = _html.escape
        verdict_rows = []
        for service in sorted(self.verdicts):
            verdict = self.verdicts[service]
            blast = self.blast.get(service)
            predicted = next(
                (p for p in self.predictions if p.get("service") == service), None
            )
            verdict_rows.append(
                "<tr>"
                f"<td>{e(service)}</td>"
                f'<td><span class="badge" style="background:'
                f'{VERDICT_COLORS.get(verdict, "#8b949e")}">{e(verdict)}</span></td>'
                f"<td>{f'{blast.score:.2f}' if blast else '—'}</td>"
                f"<td>{e(', '.join(blast.impacted_services)) if blast else '—'}</td>"
                f"<td>{predicted['blast_size'] if predicted else '—'}</td>"
                "</tr>"
            )
        cause_sections = []
        for check, candidates in sorted(self.root_causes.items()):
            rows = "".join(
                "<tr>"
                f"<td>{rank}</td><td><code>{e(c.edge)}</code></td>"
                f"<td><code>{e(c.fault)}</code></td><td>{c.frequency}</td>"
                f"<td>{c.distinct_paths}</td><td>{c.critical_fraction:.2f}</td>"
                f"<td>{c.score:.1f}</td></tr>"
                for rank, c in enumerate(candidates, 1)
            )
            cause_sections.append(
                f"<h3><code>{e(check)}</code></h3>"
                "<table><tr><th>#</th><th>injected edge</th><th>fault</th>"
                "<th>freq</th><th>paths</th><th>critical</th><th>score</th></tr>"
                f"{rows}</table>"
            )
        counts = ", ".join(
            f"{count} {e(status)}"
            for status, count in sorted(self.counts.items())
            if count
        )
        headline = "PASSED" if self.passed else "FAILED"
        headline_color = "#2da44e" if self.passed else "#cf222e"
        return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>resilience report — {e(self.name)}</title>
<style>
body {{ font: 14px/1.5 -apple-system, "Segoe UI", sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1f2328; padding: 0 1rem; }}
h1 {{ font-size: 1.4rem; }} h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
h3 {{ font-size: 0.95rem; margin-bottom: 0.3rem; }}
table {{ border-collapse: collapse; margin: 0.5rem 0; }}
th, td {{ border: 1px solid #d0d7de; padding: 0.25rem 0.6rem; text-align: left; }}
th {{ background: #f6f8fa; }}
code {{ background: #f6f8fa; padding: 0 0.2rem; border-radius: 3px; }}
.badge {{ color: #fff; border-radius: 1em; padding: 0.1em 0.7em;
          font-size: 0.85em; white-space: nowrap; }}
.headline {{ color: {headline_color}; }}
svg text {{ font: 11px sans-serif; }}
footer {{ margin-top: 2rem; color: #57606a; font-size: 0.85em; }}
</style></head><body>
<h1>resilience report — {e(self.name)}
    <span class="headline">{headline}</span></h1>
<p>app <code>{e(self.app)}</code>, seed {self.seed}, source {e(self.source)}
   — {counts or "no executions"}</p>
<h2>cascade diagram</h2>
{self._svg()}
<h2>service verdicts</h2>
<table><tr><th>service</th><th>verdict</th><th>blast score</th>
<th>observed blast</th><th>predicted blast</th></tr>
{"".join(verdict_rows)}</table>
<h2>root causes</h2>
{"".join(cause_sections) or "<p>No conclusively failed checks.</p>"}
<footer>deterministic resilience report v{REPORT_VERSION} —
regenerate with <code>repro report</code> from the campaign dump.</footer>
</body></html>
"""

    def _svg(self) -> str:
        """Inline SVG: services as layered columns, calls as edges."""
        e = _html.escape
        layers = self.graph.layers()
        if not layers:
            return "<p>No dependency graph discovered.</p>"
        node_w, node_h, x_gap, y_gap, margin = 120, 28, 190, 48, 20
        positions: _t.Dict[str, _t.Tuple[int, int]] = {}
        height = margin * 2 + max(len(layer) for layer in layers) * y_gap
        for depth, layer in enumerate(layers):
            x = margin + depth * x_gap
            for row, service in enumerate(sorted(layer)):
                positions[service] = (x, margin + row * y_gap)
        width = margin * 2 + len(layers) * x_gap
        max_calls = max((s.calls for s in self.graph.edges.values()), default=1) or 1
        parts = [
            f'<svg viewBox="0 0 {width} {height}" width="{width}"'
            f' height="{height}" role="img">'
        ]
        for (src, dst), stats in sorted(self.graph.edges.items()):
            if src not in positions or dst not in positions:
                continue
            x1, y1 = positions[src]
            x2, y2 = positions[dst]
            stroke = "#cf222e" if stats.error_rate > 0 else "#8b949e"
            stroke_w = 1 + 2 * math.sqrt(stats.calls / max_calls)
            title = (
                f"{src} -> {dst}: {stats.calls} calls, "
                f"{stats.error_rate:.0%} errors, "
                f"p95 {stats.latency_quantiles.get('p95', 0.0) * 1000:.1f}ms"
            )
            parts.append(
                f'<line x1="{x1 + node_w}" y1="{y1 + node_h // 2}"'
                f' x2="{x2}" y2="{y2 + node_h // 2}"'
                f' stroke="{stroke}" stroke-width="{stroke_w:.1f}">'
                f"<title>{e(title)}</title></line>"
            )
        for service, (x, y) in sorted(positions.items()):
            verdict = self.verdicts.get(service, "untested")
            fill = VERDICT_COLORS.get(verdict, "#8b949e")
            parts.append(
                f'<g><rect x="{x}" y="{y}" width="{node_w}" height="{node_h}"'
                f' rx="6" fill="{fill}" fill-opacity="0.15"'
                f' stroke="{fill}" stroke-width="1.5"/>'
                f'<text x="{x + node_w // 2}" y="{y + node_h // 2 + 4}"'
                f' text-anchor="middle">{e(service)}</text>'
                f"<title>{e(service)}: {e(verdict)}</title></g>"
            )
        parts.append("</svg>")
        legend = " ".join(
            f'<span class="badge" style="background:{color}">{name}</span>'
            for name, color in VERDICT_COLORS.items()
        )
        return "".join(parts) + f"<p>{legend}</p>"


def _recipe_rows(result: "CampaignResult") -> _t.List[dict]:
    """Deterministic per-recipe rows: plan identity and verdicts only —
    no wall/orchestration/assertion times, no worker assignment."""
    rows = []
    for outcome in result.outcomes:
        rows.append(
            {
                "index": outcome.index,
                "name": outcome.name,
                "pattern": outcome.pattern,
                "service": outcome.service,
                "seed": outcome.seed,
                "status": outcome.status,
                "classification": outcome.classification,
                "failed_checks": sorted(
                    check.name
                    for check in outcome.checks
                    if not check.passed and not check.inconclusive
                ),
                "attributions": len(outcome.attributions),
            }
        )
    return rows


def _tested_services(graph: DependencyGraph) -> _t.List[str]:
    """Every service of ``graph`` a fault can be staged against: all but
    the traffic sources, sorted."""
    topology = graph.topology
    sources = set(topology.entry_services())
    return sorted(service for service in topology.services() if service not in sources)


def build_report(result: "CampaignResult") -> "ResilienceReport":
    """Fold one campaign result into the operator resilience report."""
    graph = graph_from_campaign(result)
    card = result.scorecard()
    verdicts = card.service_verdicts()
    services = _tested_services(graph)
    for service in services:
        verdicts.setdefault(service, "untested")
    predictions = [predict_service_blast(graph, service) for service in services]
    return ResilienceReport(
        name=result.name,
        app=result.app,
        seed=result.seed,
        source="campaign",
        counts=result.counts(),
        passed=result.passed,
        verdicts=verdicts,
        graph=graph,
        blast=blast_radius(result),
        root_causes=rank_root_causes(result),
        predictions=predictions,
        recipes=_recipe_rows(result),
        scorecard=card.to_dict(),
    )


def _coordinate_src(key: str) -> _t.Optional[str]:
    """Caller service of a coordinate key's faulted edge.

    ``"sweep:catalog->pricing:delay"`` -> ``"catalog"`` — the service
    whose resilience pattern the injection exercised.
    """
    parts = key.split(":")
    if len(parts) < 3:
        return None
    chain = parts[1].split("@")[0].split("->")
    return chain[-2] if len(chain) >= 2 else None


def build_explore_report(
    coverage: "CoverageReport",
    graph: _t.Optional[DependencyGraph] = None,
) -> "ResilienceReport":
    """Resilience report from an exploration run.

    Exploration has no scorecard or attribution joins; verdicts come
    from the findings (a service whose dependency faulting conclusively
    failed a check is vulnerable, everything else explored is untested
    pending a full campaign), and the graph from the discovery run when
    the caller provides it.
    """
    graph = graph if graph is not None else DependencyGraph()
    services = _tested_services(graph)
    verdicts: _t.Dict[str, str] = {service: "untested" for service in services}
    for finding in coverage.findings:
        culprit = _coordinate_src(finding.coordinate)
        if culprit:
            verdicts[culprit] = "vulnerable"
    predictions = [predict_service_blast(graph, service) for service in services]
    counts = {
        "executed": coverage.executed,
        "pruned": coverage.pruned,
        "errors": coverage.errors,
        "findings": len(coverage.findings),
    }
    return ResilienceReport(
        name=f"explore/{coverage.app}/{coverage.strategy}",
        app=coverage.app,
        seed=coverage.seed,
        source="explore",
        counts=counts,
        passed=not coverage.findings,
        verdicts=verdicts,
        graph=graph,
        blast={},
        root_causes={},
        predictions=predictions,
        exploration=coverage.to_dict(),
    )

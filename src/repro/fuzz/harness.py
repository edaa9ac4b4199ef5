"""Fuzz-campaign harness: fleet execution, repro artifacts, replay.

:func:`run_fuzz` drives a whole corpus — ``FuzzGenerator(seed)`` case
by case — through the differential battery on the shared campaign
worker fleet (:class:`~repro.campaign.fleet.Fleet`), shrinks every
failing case to its minimal form, and writes one JSON repro artifact
per failure.  Both fleet backends are supported: ``threads`` (default)
runs cases in-process; ``processes`` pickles each
:class:`~repro.fuzz.spec.FuzzCase` to a spawn-isolated worker
interpreter and ships the :class:`~repro.fuzz.differential.CaseReport`
back, which parallelizes the CPU-bound battery across cores.  The
report is identical across backends and worker counts.  An artifact is
self-contained: it embeds the full case
spec (topology, scenarios, checks, workload, deployment seed) plus the
expected mismatch kinds and trace digest, so
:func:`replay_artifact` can re-execute it bit-for-bit on any machine
and confirm the failure still reproduces.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing as _t

from repro.campaign.fleet import Fleet, ProcessWorkerSpec
from repro.errors import GremlinError
from repro.fuzz.differential import CaseReport, run_case
from repro.fuzz.generator import FuzzGenerator
from repro.fuzz.shrink import shrink
from repro.fuzz.spec import FuzzCase

__all__ = [
    "ARTIFACT_VERSION",
    "FuzzReport",
    "ReplayResult",
    "load_artifact",
    "replay_artifact",
    "run_fuzz",
    "write_artifact",
]

ARTIFACT_VERSION = 1


@dataclasses.dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    seed: int
    cases: int
    #: Per-failure summaries (case_id, mismatches, artifact, shrink steps).
    failures: _t.List[dict] = dataclasses.field(default_factory=list)
    #: Cases whose oracle diff ran.
    oracle_checked: int = 0
    #: metamorphic check name -> number of cases it ran on.
    metamorphic_counts: _t.Dict[str, int] = dataclasses.field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [dict(f) for f in self.failures],
            "oracle_checked": self.oracle_checked,
            "metamorphic_counts": dict(self.metamorphic_counts),
            "wall_time": self.wall_time,
        }

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.cases} cases,"
            f" {len(self.failures)} failing"
            f" ({self.oracle_checked} oracle-diffed) in {self.wall_time:.2f}s"
        ]
        for name, count in sorted(self.metamorphic_counts.items()):
            lines.append(f"  metamorphic {name}: {count} cases")
        for failure in self.failures:
            lines.append(
                f"  FAIL {failure['case_id']}:"
                f" {', '.join(failure['mismatch_kinds'])}"
            )
            if failure.get("artifact"):
                lines.append(f"       artifact: {failure['artifact']}")
        return "\n".join(lines)


def _process_case(
    worker_id: int, case: FuzzCase, context: _t.Optional[_t.Mapping]
) -> CaseReport:
    """Fleet entry point, on either backend: run one case.

    ``context`` is the app registry (pickled, on the process lane); the
    returned :class:`CaseReport` is plain data, so it ships back to the
    parent unchanged — the fuzz verdict cannot depend on the backend.
    """
    try:
        return run_case(case, app_registry=context)
    except Exception as exc:  # noqa: BLE001 - fleet contract: never raise
        report = CaseReport(case=case, digest="")
        report.mismatches.append(
            {"kind": "harness/error", "detail": f"{type(exc).__name__}: {exc}"}
        )
        return report


def _crashed_case(case: FuzzCase, detail: str) -> CaseReport:
    """Conversion of a case whose worker died into a failing report,
    keeping the corpus fully accounted for."""
    report = CaseReport(case=case, digest="")
    report.mismatches.append(
        {"kind": "harness/crash", "detail": f"fleet job crashed: {detail}"}
    )
    return report


def run_fuzz(
    seed: int,
    cases: int,
    *,
    workers: _t.Union[int, str] = 1,
    backend: str = "threads",
    app_registry: _t.Optional[_t.Mapping] = None,
    artifacts_dir: _t.Optional[str] = None,
    shrink_failures: bool = True,
) -> FuzzReport:
    """Run the first ``cases`` cases of ``seed``'s corpus.

    Case generation, execution, and shrinking are all derived from
    ``seed`` alone, so the report is identical across machines, worker
    counts, and fleet backends.  ``backend="processes"`` requires a
    picklable ``app_registry`` (module-level builders, not lambdas).
    """
    started = time.perf_counter()
    registry = dict(app_registry) if app_registry is not None else None
    spec = ProcessWorkerSpec(
        target=_process_case, context=registry, on_crash=_crashed_case
    )
    corpus = FuzzGenerator(seed, app_registry=app_registry).generate(cases)
    with Fleet(spec, workers=workers, backend=backend) as fleet:
        results = fleet.run(corpus)
    report = FuzzReport(seed=seed, cases=cases)
    for position in range(len(corpus)):
        case_report = results[position]
        if case_report.oracle_checked:
            report.oracle_checked += 1
        for name in case_report.metamorphic_run:
            report.metamorphic_counts[name] = (
                report.metamorphic_counts.get(name, 0) + 1
            )
        if case_report.failed:
            report.failures.append(
                _handle_failure(
                    case_report,
                    app_registry=app_registry,
                    artifacts_dir=artifacts_dir,
                    shrink_failures=shrink_failures,
                )
            )
    report.wall_time = time.perf_counter() - started
    return report


def _handle_failure(
    case_report: CaseReport,
    *,
    app_registry: _t.Optional[_t.Mapping],
    artifacts_dir: _t.Optional[str],
    shrink_failures: bool,
) -> dict:
    """Shrink one failing case and persist its repro artifact."""
    final_report = case_report
    steps: _t.List[str] = []
    harness_error = any(
        m["kind"] == "harness/error" for m in case_report.mismatches
    )
    if shrink_failures and not harness_error:
        try:
            result = shrink(case_report.case, app_registry=app_registry)
        except Exception:  # noqa: BLE001 - keep the unshrunk repro on any hiccup
            pass
        else:
            final_report = result.report
            steps = result.steps
    failure = {
        "case_id": case_report.case.case_id,
        "mismatch_kinds": final_report.mismatch_kinds(),
        "shrink_steps": steps,
        "artifact": None,
    }
    if artifacts_dir is not None:
        os.makedirs(artifacts_dir, exist_ok=True)
        path = os.path.join(
            artifacts_dir, f"{case_report.case.case_id}.json"
        )
        write_artifact(path, final_report, shrink_steps=steps)
        failure["artifact"] = path
    return failure


# -- artifacts ----------------------------------------------------------------


def artifact_dict(report: CaseReport, shrink_steps: _t.Sequence[str] = ()) -> dict:
    """The self-contained JSON form of one (usually minimal) failure."""
    return {
        "version": ARTIFACT_VERSION,
        "case": report.case.to_dict(),
        "verdict": {
            "mismatch_kinds": report.mismatch_kinds(),
            "mismatches": [dict(m) for m in report.mismatches],
            "digest": report.digest,
        },
        "shrink_steps": list(shrink_steps),
    }


def write_artifact(
    path: str, report: CaseReport, shrink_steps: _t.Sequence[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact_dict(report, shrink_steps), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    version = data.get("version")
    if version != ARTIFACT_VERSION:
        raise GremlinError(
            f"unsupported artifact version {version!r} in {path}"
            f" (expected {ARTIFACT_VERSION})"
        )
    return data


@dataclasses.dataclass
class ReplayResult:
    """Outcome of re-executing a repro artifact."""

    report: CaseReport
    expected_kinds: _t.List[str]
    expected_digest: str

    @property
    def reproduced(self) -> bool:
        """True when the failure came back bit-for-bit: the same
        mismatch kinds from an execution with the same trace digest."""
        return (
            self.report.mismatch_kinds() == self.expected_kinds
            and self.report.digest == self.expected_digest
        )


def replay_artifact(
    data: _t.Union[str, dict], *, app_registry: _t.Optional[_t.Mapping] = None
) -> ReplayResult:
    """Re-run an artifact's case and compare against its recorded verdict."""
    if isinstance(data, str):
        data = load_artifact(data)
    case = FuzzCase.from_dict(data["case"])
    report = run_case(case, app_registry=app_registry)
    verdict = data.get("verdict", {})
    return ReplayResult(
        report=report,
        expected_kinds=list(verdict.get("mismatch_kinds", [])),
        expected_digest=verdict.get("digest", ""),
    )

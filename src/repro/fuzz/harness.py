"""Fuzz-campaign harness: fleet execution, repro artifacts, replay.

:func:`run_fuzz` drives a whole corpus — ``FuzzGenerator(seed)`` case
by case — through the differential battery on the shared campaign
worker fleet (:class:`~repro.campaign.fleet.Fleet`), shrinks every
failing case to its minimal form, and writes one repro artifact (a
``fuzz-artifact`` file, :mod:`repro.artifact`) per failure.  Both fleet
backends are supported: ``threads`` (default) runs cases in-process;
``processes`` pickles each :class:`~repro.fuzz.spec.FuzzCase` to a
worker process forked from the fleet's fork server and ships the
:class:`~repro.fuzz.differential.CaseReport` back, which parallelizes
the CPU-bound battery across cores.  The report is identical across
backends and worker counts.  An artifact is self-contained: it embeds
the full case spec (topology, scenarios, checks, workload, deployment
seed) plus the expected mismatch kinds and trace digest, so
:func:`replay_artifact` can re-execute it bit-for-bit on any machine
and confirm the failure still reproduces.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing as _t

from repro import artifact
from repro.campaign.fleet import Fleet, ProcessWorkerSpec
from repro.errors import ArtifactError, RecipeError
from repro.fuzz.differential import CaseReport, run_case
from repro.fuzz.generator import FuzzGenerator
from repro.fuzz.shrink import shrink
from repro.fuzz.spec import (
    SOURCE_NAME,
    FuzzCase,
    build_application,
    build_check,
    build_scenario,
)

__all__ = [
    "FuzzReport",
    "ReplayResult",
    "load_artifact",
    "replay_artifact",
    "run_fuzz",
    "write_artifact",
]


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


def _process_case(worker_id: int, case: FuzzCase, context: None) -> CaseReport:
    """Fleet entry point, on either backend: run one case.

    The returned :class:`CaseReport` is plain data, so it ships back to
    the parent unchanged — the fuzz verdict cannot depend on the backend.
    A case that raises reaches :func:`_crashed_case` through the fleet.
    """
    return run_case(case)


def _crashed_case(case: FuzzCase, detail: str) -> CaseReport:
    """Conversion of a case that raised, or whose worker died, into a
    failing report, keeping the corpus fully accounted for."""
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
    artifacts_dir: _t.Optional[str] = None,
    shrink_failures: bool = True,
) -> FuzzReport:
    """Run the first ``cases`` cases of ``seed``'s corpus.

    Case generation, execution, and shrinking are all derived from
    ``seed`` alone, so the report is identical across machines, worker
    counts, and fleet backends.
    """
    started = time.perf_counter()
    spec = ProcessWorkerSpec(target=_process_case, on_crash=_crashed_case)
    corpus = FuzzGenerator(seed).generate(cases)
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
                    artifacts_dir=artifacts_dir,
                    shrink_failures=shrink_failures,
                )
            )
    report.wall_time = time.perf_counter() - started
    return report


def _handle_failure(
    case_report: CaseReport,
    *,
    artifacts_dir: _t.Optional[str],
    shrink_failures: bool,
) -> dict:
    """Shrink one failing case and persist its repro artifact."""
    final_report = case_report
    steps: _t.List[str] = []
    # A case the harness could not run is not shrunk: shrinking would
    # re-run it here, in the parent, where a worker-killing case takes
    # the whole campaign down with it.
    harness_failure = any(
        m["kind"].startswith("harness/") for m in case_report.mismatches
    )
    if shrink_failures and not harness_failure:
        try:
            result = shrink(case_report.case)
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
        artifact.makedirs(artifacts_dir)
        path = os.path.join(
            artifacts_dir, f"{case_report.case.case_id}.json"
        )
        write_artifact(path, final_report, shrink_steps=steps)
        failure["artifact"] = path
    return failure


# -- artifacts ----------------------------------------------------------------


def artifact_dict(report: CaseReport, shrink_steps: _t.Sequence[str] = ()) -> dict:
    """The self-contained record of one (usually minimal) failure."""
    return {
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
    """Write the ``fuzz-artifact`` file of one failure, atomically."""
    artifact.write(path, "fuzz-artifact", [artifact_dict(report, shrink_steps)])


def _check_artifact(data: dict) -> dict:
    """Refuse a record a run could not start from: a verdict of the wrong
    shape, or a case whose app, scenarios, checks or entry do not build."""
    verdict, case = data["verdict"], FuzzCase.from_dict(data["case"])
    if type(verdict["mismatch_kinds"]) is not list or type(verdict["digest"]) is not str:
        raise ValueError("verdict needs a mismatch_kinds list and a digest string")
    application = build_application(case.topology)
    application.validate()
    graph = application.logical_graph()
    if not graph.has_service(case.topology.entry):
        raise RecipeError(f"unknown entry service {case.topology.entry!r}")
    graph.add_dependency(SOURCE_NAME, case.topology.entry)
    for spec in case.scenarios:
        build_scenario(spec).decompose(graph)
    for spec in case.checks:
        build_check(spec)
    return data


def load_artifact(path: str) -> dict:
    """Read a repro artifact's one record back; a record whose case does
    not rebuild or that lacks a verdict is refused naming its line."""
    records = artifact.read(path, "fuzz-artifact")
    if len(records) != 1:
        raise ArtifactError(path, 2, f"expected one record, the file holds {len(records)}")
    return artifact.decode(path, records, _check_artifact)[0]


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


def replay_artifact(path: str) -> ReplayResult:
    """Re-run an artifact's case and compare against its recorded verdict."""
    data = load_artifact(path)
    report = run_case(FuzzCase.from_dict(data["case"]))
    verdict = data["verdict"]
    return ReplayResult(
        report=report,
        expected_kinds=list(verdict["mismatch_kinds"]),
        expected_digest=verdict["digest"],
    )

"""Greedy failure minimization for fuzz cases.

When the differential runner flags a case, the raw generated input is
usually bigger than the bug it found: extra scenarios, a longer
workload, services the failing interaction never touches.  The
shrinker repeatedly tries structure-preserving reductions — fewer
requests, dropped scenarios, dropped checks, pruned DAG services — and
keeps each one only if the reduced case *still produces at least one
mismatch*.  Because every candidate is re-executed through the full
differential battery, the minimal case is guaranteed to reproduce, not
merely resemble, the original failure.

The loop runs passes to a fixpoint (a successful reduction may enable
earlier passes to fire again) with a hard cap on total executions so a
pathological case cannot stall a campaign.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.fuzz.differential import CaseReport, run_case
from repro.fuzz.spec import FuzzCase, TopologySpec, WorkloadSpec

__all__ = ["ShrinkResult", "shrink"]

#: Upper bound on differential executions one shrink may spend.
MAX_EVALUATIONS = 200


@dataclasses.dataclass
class ShrinkResult:
    """The minimal failing case plus how it was reached."""

    case: FuzzCase
    #: The battery report of the minimal case (still failing).
    report: CaseReport
    #: Human-readable reduction steps that were kept.
    steps: _t.List[str] = dataclasses.field(default_factory=list)
    #: Differential executions spent.
    evaluations: int = 0


def shrink(
    case: FuzzCase,
    *,
    max_evaluations: int = MAX_EVALUATIONS,
) -> ShrinkResult:
    """Minimize ``case`` while preserving at least one mismatch.

    ``case`` must currently fail the battery; raises ``ValueError``
    otherwise (shrinking a passing case would loop pointlessly).
    """
    report = run_case(case)
    if not report.failed:
        raise ValueError(f"case {case.case_id} passes the battery; nothing to shrink")
    state = ShrinkResult(case=case, report=report, evaluations=1)

    def attempt(candidate: FuzzCase, step: str) -> bool:
        if state.evaluations >= max_evaluations:
            return False
        state.evaluations += 1
        candidate_report = run_case(candidate)
        if candidate_report.failed:
            state.case = candidate
            state.report = candidate_report
            state.steps.append(step)
            return True
        return False

    progress = True
    while progress and state.evaluations < max_evaluations:
        progress = (
            _shrink_workload(state, attempt)
            | _shrink_scenarios(state, attempt)
            | _shrink_checks(state, attempt)
            | _shrink_services(state, attempt)
        )
    return state


Attempt = _t.Callable[[FuzzCase, str], bool]


def _shrink_workload(state: ShrinkResult, attempt: Attempt) -> bool:
    """Fewer requests, zero think time."""
    changed = False
    while True:
        workload = state.case.workload
        candidates = []
        if workload.requests > 1:
            candidates.append(1)
            if workload.requests > 3:
                candidates.append(workload.requests // 2)
        reduced = False
        for requests in candidates:
            candidate = _replace(
                state.case,
                workload=WorkloadSpec(requests=requests, think_time=workload.think_time),
            )
            if attempt(candidate, f"workload: {workload.requests} -> {requests} requests"):
                changed = reduced = True
                break
        if not reduced:
            break
    workload = state.case.workload
    if workload.think_time > 0:
        candidate = _replace(
            state.case,
            workload=WorkloadSpec(requests=workload.requests, think_time=0.0),
        )
        if attempt(candidate, "workload: think_time -> 0"):
            changed = True
    return changed


def _shrink_scenarios(state: ShrinkResult, attempt: Attempt) -> bool:
    """Drop whole scenarios, one at a time (last first)."""
    changed = False
    index = len(state.case.scenarios) - 1
    while index >= 0 and len(state.case.scenarios) > 1:
        scenarios = list(state.case.scenarios)
        dropped = scenarios.pop(index)
        candidate = _replace(state.case, scenarios=scenarios)
        if attempt(candidate, f"drop scenario {dropped['kind']}[{index}]"):
            changed = True
        index -= 1
    return changed


def _shrink_checks(state: ShrinkResult, attempt: Attempt) -> bool:
    """Drop checks one at a time (keeps any check the mismatch needs)."""
    changed = False
    index = len(state.case.checks) - 1
    while index >= 0:
        checks = list(state.case.checks)
        dropped = checks.pop(index)
        candidate = _replace(state.case, checks=checks)
        if attempt(candidate, f"drop check {dropped['kind']}[{index}]"):
            changed = True
        index -= 1
    return changed


def _shrink_services(state: ShrinkResult, attempt: Attempt) -> bool:
    """Prune DAG services no scenario or check references."""
    if state.case.topology.kind != "dag":
        return False
    changed = False
    for service in list(reversed(state.case.topology.services)):
        topology = state.case.topology
        if service == topology.entry or service not in topology.services:
            continue
        if service in _referenced_names(state.case):
            continue
        services = [name for name in topology.services if name != service]
        edges = [
            edge for edge in topology.edges if service not in edge
        ]
        candidate = _replace(
            state.case,
            topology=TopologySpec(
                kind="dag",
                services=services,
                edges=edges,
                entry=topology.entry,
                partial_ok=[name for name in topology.partial_ok if name != service],
            ),
        )
        if attempt(candidate, f"prune service {service}"):
            changed = True
    return changed


def _referenced_names(case: FuzzCase) -> set:
    """Every string (or string-list element) a scenario/check names."""
    names: set = set()
    for spec in list(case.scenarios) + list(case.checks):
        for value in spec["params"].values():
            if isinstance(value, str):
                names.add(value)
            elif isinstance(value, (list, tuple)):
                names.update(v for v in value if isinstance(v, str))
    return names


def _replace(case: FuzzCase, **changes: _t.Any) -> FuzzCase:
    return dataclasses.replace(case, **changes)

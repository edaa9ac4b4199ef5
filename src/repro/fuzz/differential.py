"""Differential runner: execute a fuzz case for real and diff it.

One :func:`run_case` call runs a battery against a single
:class:`~repro.fuzz.spec.FuzzCase`:

* **Oracle diff** (oracle-eligible cases only): the case executes on
  the real stack — deploy, program agents, drive load, drain logs,
  evaluate checks — and the observed trace, load samples, and check
  verdicts are diffed field-by-field against the reference oracle's
  prediction (:mod:`repro.fuzz.oracle`).
* **Metamorphic checks** (domain chosen per case):

  - *matcher-strategy*: re-running with the prefix-index matcher (the
    production one) must produce the linear scan's trace digest byte
    for byte — both consume probability draws identically given the
    same seeded RNG.
  - *scheduler*: re-running on the reference heap scheduler must
    produce a byte-identical digest — the default lane (a heap for the
    future, a FIFO for the present) implements the same (timestamp,
    sequence) total order.
  - *zero-probability*: appending a ``probability=0`` abort rule on
    the entry edge must not change the digest (deterministic cases
    only: elsewhere the extra draw legitimately shifts the stream).
  - *rule-order*: installing the translated rules in reverse order
    must not change the digest when no two rules compete for the same
    ``(src, dst, direction)`` slot — first-match-wins degenerates to
    at-most-one-match.
  - *shuffle*: re-ingesting the records into a fresh store in
    shuffled order must leave every check verdict unchanged.

Each failed comparison becomes one mismatch dict ``{"kind", "detail"}``
with kinds like ``"oracle/trace"`` or ``"metamorphic/rule-order"`` —
the shrinker minimizes cases while preserving at least one mismatch.
"""

from __future__ import annotations

import dataclasses
import random
import time
import typing as _t

from repro.core.gremlin import (
    LoadSpec,
    run_faulted,
    strict_digest,
    strict_records,
)
from repro.core.scenarios import AbortCalls
from repro.fuzz.oracle import OracleError, Prediction, predict
from repro.fuzz.spec import (
    SOURCE_NAME,
    FuzzCase,
    build_application,
    build_check,
    build_scenario,
)
from repro.logstore.store import EventStore
from repro.observability.trace import shape_digests_of
from repro.simulation.kernel import Simulator

__all__ = ["CaseReport", "Execution", "execute_case", "run_case"]


@dataclasses.dataclass
class Execution:
    """Everything one real execution of a case produced."""

    #: Oracle-comparable record tuples, in store (= timestamp) order:
    #: (kind, src, dst, request_id, status, error, fault_applied,
    #: gremlin_generated, round(injected_delay, 9)).
    records: _t.List[tuple]
    #: Per top-level request: (request_id, status, error).
    samples: _t.List[tuple]
    #: Per check: (label, passed, inconclusive).
    verdicts: _t.List[tuple]
    #: Strict digest over records *including* timestamps/latency plus
    #: samples and verdicts — what replay and the digest-equality
    #: metamorphic checks compare bit-for-bit.
    digest: str
    #: The live store (for the shuffle check).
    store: EventStore
    #: (src, dst, on) per installed rule, in install order.
    rule_edges: _t.List[tuple]
    #: request_id -> causal-tree shape digest (observability layer's
    #: :func:`trace_shape_digest`) — the ID-insensitive view the shape
    #: metamorphic check and the exploration coverage signal consume.
    shape_digests: _t.Dict[str, str] = dataclasses.field(default_factory=dict)


def execute_case(
    case: FuzzCase,
    *,
    matcher_strategy: str = "linear",
    scheduler: str = "default",
    rule_transform: _t.Optional[_t.Callable[[list], list]] = None,
    extra_scenarios: _t.Sequence = (),
) -> Execution:
    """Run one case on the real stack and capture its full outcome.

    ``rule_transform`` edits the translated rule list before the
    orchestrator installs it (metamorphic rule-order check);
    ``extra_scenarios`` are appended after the case's own scenarios
    (metamorphic zero-probability check); ``scheduler`` picks the kernel
    scheduler implementation (metamorphic scheduler check).
    """
    scenarios = [build_scenario(spec) for spec in case.scenarios]
    scenarios.extend(extra_scenarios)
    run = run_faulted(
        build_application(case.topology).deploy(
            sim=Simulator(seed=case.seed, scheduler=scheduler),
            matcher_strategy=matcher_strategy,
        ),
        scenarios,
        [build_check(spec) for spec in case.checks],
        load=LoadSpec(
            entry=case.topology.entry,
            requests=case.workload.requests,
            think_time=case.workload.think_time,
            source_name=SOURCE_NAME,
        ),
        rule_transform=rule_transform,
    )
    store = run.deployment.store
    verdicts = [(result.name, result.passed, result.inconclusive) for result in run.checks]
    strict = strict_records(store)
    samples = [
        (sample.request_id, sample.status, sample.error) for sample in run.load.samples
    ]
    return Execution(
        records=[row[:ORACLE_FIELDS] for row in strict],
        samples=samples,
        verdicts=verdicts,
        digest=strict_digest(records=strict, samples=samples, verdicts=verdicts),
        store=store,
        rule_edges=[(rule.src, rule.dst, rule.on) for rule in run.installation.rules],
        shape_digests=shape_digests_of(store),
    )


#: Leading fields of a :func:`~repro.core.gremlin.strict_records` row
#: that the oracle can predict (everything but the timestamp and the
#: latency).
ORACLE_FIELDS = 9


@dataclasses.dataclass
class CaseReport:
    """The differential battery's verdict on one case."""

    case: FuzzCase
    digest: str
    #: Each entry: {"kind": "oracle/trace" | ..., "detail": str}.
    mismatches: _t.List[dict] = dataclasses.field(default_factory=list)
    #: True when the oracle diff ran (case was oracle-eligible).
    oracle_checked: bool = False
    #: Metamorphic check names that ran on this case.
    metamorphic_run: _t.List[str] = dataclasses.field(default_factory=list)
    wall_time: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.mismatches)

    def mismatch_kinds(self) -> _t.List[str]:
        return [mismatch["kind"] for mismatch in self.mismatches]

    def to_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "digest": self.digest,
            "mismatches": [dict(m) for m in self.mismatches],
            "oracle_checked": self.oracle_checked,
            "metamorphic_run": list(self.metamorphic_run),
            "wall_time": self.wall_time,
        }


def _diff_sequences(
    kind: str, expected: _t.Sequence, observed: _t.Sequence
) -> _t.Optional[dict]:
    """First point of divergence between two tuple sequences, or None."""
    if list(expected) == list(observed):
        return None
    for index, (want, have) in enumerate(zip(expected, observed)):
        if want != have:
            return {
                "kind": kind,
                "detail": (
                    f"index {index}: expected {want!r}, observed {have!r}"
                ),
            }
    return {
        "kind": kind,
        "detail": (
            f"length mismatch: expected {len(expected)} entries,"
            f" observed {len(observed)}"
        ),
    }


def _oracle_mismatches(prediction: Prediction, base: Execution) -> _t.List[dict]:
    mismatches = []
    predicted = [record.key() for record in prediction.records]
    for kind, want, have in (
        ("oracle/trace", predicted, base.records),
        ("oracle/samples", prediction.samples, base.samples),
        ("oracle/verdicts", prediction.verdicts, base.verdicts),
    ):
        found = _diff_sequences(kind, want, have)
        if found is not None:
            mismatches.append(found)
    return mismatches


def run_case(case: FuzzCase) -> CaseReport:
    """Run the full differential battery against one case."""
    started = time.perf_counter()
    base = execute_case(case)
    report = CaseReport(case=case, digest=base.digest)

    # -- oracle diff ----------------------------------------------------------
    if case.oracle_eligible:
        try:
            prediction = predict(case)
        except OracleError as exc:
            report.mismatches.append(
                {"kind": "oracle/error", "detail": f"{exc}"}
            )
        else:
            report.oracle_checked = True
            report.mismatches.extend(_oracle_mismatches(prediction, base))

    # -- metamorphic: matcher strategy ---------------------------------------
    # Applies to every case: both strategies consume probability draws
    # identically by construction, so even fractional-probability cases
    # must produce identical digests.  The base run scans linearly (the
    # oracle); "prefix" is the production matcher.
    report.metamorphic_run.append("matcher-strategy")
    other = execute_case(case, matcher_strategy="prefix")
    if other.digest != base.digest:
        report.mismatches.append(
            {
                "kind": "metamorphic/matcher-strategy",
                "detail": f"[prefix] {_strategy_detail(base, other)}",
            }
        )

    # -- metamorphic: kernel scheduler ---------------------------------------
    # The default (heap + due FIFO) and heap schedulers implement the
    # same total order (timestamp, schedule sequence), so every case must produce a
    # byte-identical digest on both — timestamps, record order, RNG
    # draws, verdicts, everything.
    report.metamorphic_run.append("scheduler")
    heap_run = execute_case(case, scheduler="heap")
    if heap_run.digest != base.digest:
        report.mismatches.append(
            {
                "kind": "metamorphic/scheduler",
                "detail": _strategy_detail(base, heap_run),
            }
        )

    # -- metamorphic: zero-probability rule ----------------------------------
    # A probability-0 rule matches structurally but never applies; on
    # deterministic cases (no other rule draws) it must be a no-op.
    if case.deterministic:
        report.metamorphic_run.append("zero-probability")
        noop = AbortCalls(
            SOURCE_NAME, case.topology.entry, probability=0.0
        )
        ghosted = execute_case(case, extra_scenarios=[noop])
        if ghosted.digest != base.digest:
            report.mismatches.append(
                {
                    "kind": "metamorphic/zero-probability",
                    "detail": _strategy_detail(base, ghosted),
                }
            )

    # -- metamorphic: rule order ---------------------------------------------
    # With at most one rule per (src, dst, direction) slot, first-match-
    # wins cannot depend on install order.
    edges = base.rule_edges
    if edges and len(set(edges)) == len(edges):
        report.metamorphic_run.append("rule-order")
        reordered = execute_case(
            case, rule_transform=lambda rules: list(reversed(rules))
        )
        if reordered.digest != base.digest:
            report.mismatches.append(
                {
                    "kind": "metamorphic/rule-order",
                    "detail": _strategy_detail(base, reordered),
                }
            )

    # -- metamorphic: ingestion-order shuffle --------------------------------
    # Check verdicts must not depend on the order records landed in the
    # store (logstash batches arrive out of order in the real system).
    report.metamorphic_run.append("shuffle")
    shuffled_store = EventStore(strategy="indexed")
    shuffled = list(base.store.all_records())
    random.Random(case.seed).shuffle(shuffled)
    shuffled_store.extend(shuffled)
    shuffled_verdicts = []
    for spec in case.checks:
        check = build_check(spec)
        result = check.run(shuffled_store)
        shuffled_verdicts.append((check.label(), result.passed, result.inconclusive))
    found = _diff_sequences(
        "metamorphic/shuffle", base.verdicts, shuffled_verdicts
    )
    if found is not None:
        report.mismatches.append(found)
    # Shape digests are span-ID- and order-insensitive by construction,
    # so reassembling trees from the shuffled store must reproduce every
    # per-request shape exactly.
    shuffled_shapes = shape_digests_of(shuffled_store)
    if shuffled_shapes != base.shape_digests:
        diverged = sorted(
            rid
            for rid in set(base.shape_digests) | set(shuffled_shapes)
            if base.shape_digests.get(rid) != shuffled_shapes.get(rid)
        )
        report.mismatches.append(
            {
                "kind": "metamorphic/shuffle-shape",
                "detail": (
                    "trace shape digests changed under ingestion-order"
                    f" shuffle for request(s) {diverged[:5]}"
                ),
            }
        )

    report.wall_time = time.perf_counter() - started
    return report


def _strategy_detail(base: Execution, other: Execution) -> str:
    """Localize a digest divergence for the repro artifact."""
    found = _diff_sequences("", base.records, other.records)
    if found is not None:
        return f"trace diverged: {found['detail']}"
    for name, want, have in (
        ("samples", base.samples, other.samples),
        ("verdicts", base.verdicts, other.verdicts),
    ):
        found = _diff_sequences("", want, have)
        if found is not None:
            return f"{name} diverged: {found['detail']}"
    return (
        "trace/samples/verdicts identical but digests differ"
        " (timestamp or latency drift)"
    )

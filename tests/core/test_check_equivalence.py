"""The Assertion Checker's scans against the per-record loops they replaced.

``CheckStatus``, ``CheckFailures`` and the window counts scan a scope with
one comprehension plus ``list.count``/``list.index``; ``HasTimeouts`` reads
its replies once; ``HasBulkhead`` reads its dependents from the store's
identity slices; the bounded-retry and breaker chains are built once per
parameter set.  The reference evaluator below keeps the loops they
replaced — one ``observed_status`` call per record, a rebuilt ``Combine``
per run, dependents collected from every request the caller sent — and
every ``CheckResult`` (name, verdict, detail, data with the step trace)
and every ``StepOutcome`` must come out equal, over a 60-stage chained
session on the 28-service app, on both store strategies and through a
``QueryCache`` whose hit and miss counts must match too.
"""

from __future__ import annotations

import itertools

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import plan_campaign
from repro.core import (
    AtLeastRequests,
    AtMostRequests,
    CheckFailures,
    CheckStatus,
    Combine,
    Gremlin,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
    QueryCache,
)
from repro.core.assertions import BaseAssertion, StepOutcome, request_rate
from repro.core.patterns import CheckResult
from repro.core.queries import get_requests, observed_status
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore, ObservationKind, ObservationRecord, Query

# -- the reference evaluator: the per-record loops ------------------------------


class RefCheckStatus(BaseAssertion):
    def __init__(self, status, num_match, with_rule=True):
        self.status, self.num_match, self.with_rule = status, num_match, with_rule

    def evaluate_from(self, rlist, start, anchor):
        matches = 0
        for index in range(start, len(rlist)):
            record = rlist[index]
            if observed_status(record, self.with_rule) == self.status:
                matches += 1
                if matches >= self.num_match:
                    return StepOutcome(
                        passed=True,
                        consumed=index - start + 1,
                        detail=f"found {matches} replies with status {self.status}",
                        anchor=record.timestamp,
                    )
        return StepOutcome(
            passed=False,
            consumed=len(rlist) - start,
            detail=(
                f"only {matches}/{self.num_match} records returned status"
                f" {self.status} (withRule={self.with_rule})"
            ),
        )


class RefCheckFailures(BaseAssertion):
    def __init__(self, num_match, with_rule=True):
        self.num_match, self.with_rule = num_match, with_rule

    def evaluate_from(self, rlist, start, anchor):
        matches = 0
        for index in range(start, len(rlist)):
            record = rlist[index]
            status = observed_status(record, self.with_rule)
            if (status is not None and status >= 500) or record.error is not None:
                matches += 1
                if matches >= self.num_match:
                    return StepOutcome(
                        passed=True,
                        consumed=index - start + 1,
                        detail=f"found {matches} failed calls",
                        anchor=record.timestamp,
                    )
        return StepOutcome(
            passed=False,
            consumed=len(rlist) - start,
            detail=f"only {matches}/{self.num_match} failed calls observed",
        )


def _ref_count_in_window(rlist, start, end, with_rule):
    if with_rule:
        return end - start
    count = 0
    for index in range(start, end):
        if not rlist[index].gremlin_generated:
            count += 1
    return count


class RefAtMostRequests(AtMostRequests):
    def evaluate_from(self, rlist, start, anchor):
        if anchor is None:
            anchor = rlist[start].timestamp if start < len(rlist) else 0.0
        horizon = anchor + self.tdelta
        end = start
        while end < len(rlist) and rlist[end].timestamp <= horizon:
            end += 1
        count = _ref_count_in_window(rlist, start, end, self.with_rule)
        return StepOutcome(
            passed=count <= self.num,
            consumed=end - start,
            detail=(
                f"{count} requests within {self.tdelta:g}s window"
                f" (limit {self.num}, withRule={self.with_rule})"
            ),
            anchor=horizon,
        )


class RefAtLeastRequests(AtLeastRequests):
    def evaluate_from(self, rlist, start, anchor):
        if anchor is None:
            anchor = rlist[start].timestamp if start < len(rlist) else 0.0
        horizon = anchor + self.tdelta
        end = start
        while end < len(rlist) and rlist[end].timestamp <= horizon:
            end += 1
        count = _ref_count_in_window(rlist, start, end, self.with_rule)
        return StepOutcome(
            passed=count >= self.num,
            consumed=end - start,
            detail=(
                f"{count} requests within {self.tdelta:g}s window"
                f" (minimum {self.num}, withRule={self.with_rule})"
            ),
            anchor=horizon,
        )


def _ref_timeouts(check, store, since, until):
    reply_scope, request_scope = check.scopes(since, until)
    replies = store.search(reply_scope)
    requests = store.search(request_scope)
    if not requests:
        return check._no_data(f"no upstream calls to {check.src!r} observed")
    slow = [r for r in replies if r.latency is not None and r.latency > check.max_latency]
    unanswered = [r for r in requests if r.status is None and r.error is None]
    detail = (
        f"{len(replies)} replies from {check.src!r}: {len(slow)} exceeded"
        f" {check.max_latency:g}s, {len(unanswered)} calls never completed"
    )
    return CheckResult(
        check.name,
        not slow and not unanswered,
        detail,
        data={
            "replies": len(replies),
            "slow": len(slow),
            "unanswered": len(unanswered),
            "max_observed": max(
                (r.latency for r in replies if r.latency is not None), default=0.0
            ),
        },
    )


def _ref_bounded_retries(check, store, since, until):
    rlist = get_requests(store, check.src, check.dst, check.id_pattern, since, until)
    if not rlist:
        return check._no_data(f"no requests {check.src!r} -> {check.dst!r} observed")
    if check.failure_status is None:
        trigger: BaseAssertion = RefCheckFailures(check.num_failures, with_rule=True)
        trigger_text = f"{check.num_failures} failed calls"
    else:
        trigger = RefCheckStatus(check.failure_status, check.num_failures, True)
        trigger_text = f"{check.num_failures} failures with status {check.failure_status}"
    result = Combine(
        trigger, (RefAtMostRequests, check.window, False, check.max_tries)
    ).evaluate(rlist)
    if not result.steps[0].passed:
        return check._no_data(f"fewer than {trigger_text} observed — fault not exercised")
    return CheckResult(
        check.name,
        result.passed,
        result.steps[-1].detail,
        data={"requests": len(rlist), "trace": result.explain()},
    )


def _ref_circuit_breaker(check, store, since, until):
    rlist = get_requests(store, check.src, check.dst, check.id_pattern, since, until)
    if not rlist:
        return check._no_data(f"no requests {check.src!r} -> {check.dst!r} observed")
    steps: list = [
        RefCheckFailures(check.threshold, with_rule=True),
        RefAtMostRequests(check.tdelta, True, check.half_open_allowance),
    ]
    if check.check_recovery:
        steps.append(RefAtLeastRequests(check.recovery_window, True, check.success_threshold))
    result = Combine(*steps).evaluate(rlist)
    if not result.steps[0].passed:
        return check._no_data(
            f"fewer than {check.threshold} failures observed — fault not exercised"
        )
    return CheckResult(
        check.name,
        result.passed,
        "; ".join(step.detail for step in result.steps[1:]),
        data={"requests": len(rlist), "trace": result.explain()},
    )


def _ref_bulkhead(check, store, since, until):
    others = check.other_dsts
    if others is None:
        observed = {
            record.dst
            for record in store.search(
                Query(kind=ObservationKind.REQUEST, src=check.src, since=since, until=until)
            )
        }
        others = sorted(observed - {check.slow_dst})
    if not others:
        return check._no_data(
            f"{check.src!r} has no observed dependents other than {check.slow_dst!r}"
        )
    rates = {
        dst: request_rate(get_requests(store, check.src, dst, check.id_pattern, since, until))
        for dst in others
    }
    starved = {dst: r for dst, r in rates.items() if r < check.rate}
    detail = (
        "rates to other dependents: "
        + ", ".join(f"{dst}={r:.2f}/s" for dst, r in sorted(rates.items()))
        + (f"; starved: {sorted(starved)}" if starved else "")
    )
    return CheckResult(check.name, not starved, detail, data={"rates": rates})


REFERENCE = {
    HasTimeouts: _ref_timeouts,
    HasBoundedRetries: _ref_bounded_retries,
    HasCircuitBreaker: _ref_circuit_breaker,
    HasBulkhead: _ref_bulkhead,
}


def reference_run(check, store, since=None, until=None) -> CheckResult:
    """``check.run`` as the per-record loops evaluated it."""
    return REFERENCE[type(check)](check, store, since, until)


def _as_tuple(result: CheckResult) -> tuple:
    # Type-exact, so an int where a float was (or a bool where an int
    # was) is a difference too.
    return (
        result.name,
        result.passed,
        result.inconclusive,
        result.detail,
        [(key, type(value), value) for key, value in result.data.items()],
    )


# -- a chained session on the 28-service app ----------------------------------------


def _session_checks(plan) -> list:
    """The plan's checks, plus the shapes the planner does not emit:
    breakers (with and without recovery), retries triggered by any
    failure, and a bulkhead with its dependents given."""
    checks = [check for entry in plan.entries for check in entry.recipe.checks]
    edges = sorted(
        {(c.src, c.dst) for c in checks if isinstance(c, HasBoundedRetries)}
    )
    for src, dst in edges:
        checks += [
            HasCircuitBreaker(src, dst, threshold=3, tdelta="2s"),
            HasCircuitBreaker(src, dst, threshold=5, tdelta=0.5, check_recovery=False),
            HasBoundedRetries(src, dst, 2, failure_status=None, num_failures=3, window="5s"),
            HasBoundedRetries(src, dst, 2, failure_status=500, num_failures=1),
            HasBulkhead(src, dst, rate=0.5, other_dsts=[dst]),
        ]
    return checks


@pytest.fixture(scope="module")
def session():
    """60 inject / load / check stages on one deployment, as the
    ``chained_session`` benchmark runs them; yields the deployment, the
    checks and every stage's window start."""
    plan = plan_campaign(build_socialnetwork_app, seed=11)
    load = plan.entries[0].load
    deployment = build_socialnetwork_app().deploy(seed=11)
    source = deployment.add_traffic_source(load.entry, name=load.source_name)
    gremlin = Gremlin(deployment)
    sim = deployment.sim
    checks = _session_checks(plan)
    starts = []
    mismatches = []
    evaluated = 0
    for stage in range(60):
        entry = plan.entries[2 * stage % len(plan.entries)]
        since = sim.now
        starts.append(since)
        gremlin.inject(*entry.recipe.scenarios)
        driver = ClosedLoopLoad(num_requests=5, think_time=entry.load.think_time)
        sim.process(driver.driver(source), name=f"load/{stage}")
        sim.run()
        sim.run(until=sim.now + entry.settle)
        # Windowed to this stage, then over the whole history, as the
        # log grows: the equality is checked at every stage.
        for check in checks:
            for window in (since, None):
                got = _as_tuple(gremlin.check(check, since=window))
                want = _as_tuple(reference_run(check, deployment.store, since=window))
                evaluated += 1
                if got != want:
                    mismatches.append((stage, window, got, want))
        gremlin.clear()
    return deployment, checks, starts, mismatches, evaluated


def test_every_check_result_equals_the_reference_over_a_60_stage_session(session):
    deployment, checks, _, mismatches, evaluated = session
    assert mismatches == []
    assert evaluated == 60 * 2 * len(checks)
    assert len(deployment.store) > 20_000  # the log really grew


def test_the_session_is_not_vacuous(session):
    """Every branch the scans replaced is exercised: passes, fails,
    inconclusives, slow replies, starved dependents, tripped triggers."""
    deployment, checks, starts, _, _ = session
    results = [check.run(deployment.store) for check in checks]
    results += [check.run(deployment.store, since=starts[30]) for check in checks]
    assert {(r.passed, r.inconclusive) for r in results} == {
        (True, False), (False, False), (False, True)
    }
    kinds = {type(check) for check in checks}
    assert kinds == set(REFERENCE)
    assert any(r.data.get("slow") for r in results)
    assert any("starved" in r.detail for r in results)
    assert any("trace" in r.data and not r.inconclusive for r in results)
    records = deployment.store.all_records()
    assert any(r.gremlin_generated for r in records)
    assert any(r.fault_applied and "abort" in r.fault_applied for r in records)


@pytest.mark.parametrize("strategy", ["indexed", "linear"])
def test_both_store_strategies_through_a_query_cache(session, strategy):
    """The finished session's log in a store of each strategy, every
    check run through a QueryCache the way ``run_faulted`` does it
    (scopes prefetched, then the runs) for five stage windows and
    the whole history: equal results and equal cache accounting."""
    deployment, checks, starts, _, _ = session
    store = EventStore(strategy=strategy)
    store.extend(deployment.store.all_records())
    for since in starts[::12] + [None]:
        caches = []
        outcomes = []
        for run in (lambda c, s: c.run(s, since=since), lambda c, s: reference_run(c, s, since)):
            cache = QueryCache(store)
            for check in checks:
                for scope in check.scopes(since=since):
                    cache.search(scope)
            outcomes.append([_as_tuple(run(check, cache)) for check in checks])
            caches.append((cache.misses, cache.hits))
        assert outcomes[0] == outcomes[1]
        assert caches[0] == caches[1]


def test_a_cache_counts_a_dependents_read_as_a_fetch_of_its_scope(session):
    """Without the prefetch, the discovery read is the miss and a later
    search of the same scope the hit — as when discovery searched it."""
    deployment, checks, _, _, _ = session
    bulkheads = [c for c in checks if isinstance(c, HasBulkhead) and c.other_dsts is None]
    assert bulkheads
    counts = []
    for run in (lambda c, s: c.run(s), lambda c, s: reference_run(c, s)):
        cache = QueryCache(deployment.store)
        for check in bulkheads:
            run(check, cache)
            for scope in check.scopes():
                cache.search(scope)
        counts.append((cache.misses, cache.hits))
    assert counts[0] == counts[1]


# -- the base assertions, both accounting views -------------------------------------

_STEP_PAIRS = [
    (lambda wr: CheckStatus(503, 1, wr), lambda wr: RefCheckStatus(503, 1, wr)),
    (lambda wr: CheckStatus(503, 5, wr), lambda wr: RefCheckStatus(503, 5, wr)),
    (lambda wr: CheckStatus(200, 3, wr), lambda wr: RefCheckStatus(200, 3, wr)),
    (lambda wr: CheckFailures(1, wr), lambda wr: RefCheckFailures(1, wr)),
    (lambda wr: CheckFailures(5, wr), lambda wr: RefCheckFailures(5, wr)),
    (lambda wr: AtMostRequests("2s", wr, 3), lambda wr: RefAtMostRequests("2s", wr, 3)),
    (lambda wr: AtLeastRequests(0.5, wr, 2), lambda wr: RefAtLeastRequests(0.5, wr, 2)),
]


@pytest.mark.parametrize("with_rule", [True, False])
def test_base_assertions_equal_the_reference_on_every_edge(session, with_rule):
    """Each base assertion over every request and reply scope of the
    session's log, from several offsets and anchors, in both views."""
    deployment, _, _, _, _ = session
    store = deployment.store
    edges = sorted({(r.kind, r.src, r.dst) for r in store.all_records()})
    compared = 0
    for kind, src, dst in edges:
        rlist = store.search(Query(kind=kind, src=src, dst=dst))
        for new, ref in _STEP_PAIRS:
            for start in {0, 1, len(rlist) // 2, len(rlist) - 1, len(rlist)}:
                if not 0 <= start <= len(rlist):
                    continue
                for anchor in (None, rlist[0].timestamp):
                    got = new(with_rule).evaluate_from(rlist, start, anchor)
                    assert got == ref(with_rule).evaluate_from(rlist, start, anchor)
                    compared += 1
    assert compared > 1000


# -- edge cases ---------------------------------------------------------------------


def _request(ts, status=None, **fields) -> ObservationRecord:
    return ObservationRecord(
        timestamp=ts, kind="request", src="A", dst="B", status=status, **fields
    )


def _reply(ts, latency, src="Up", dst="A") -> ObservationRecord:
    return ObservationRecord(timestamp=ts, kind="reply", src=src, dst=dst, latency=latency)


@pytest.mark.parametrize("with_rule", [True, False])
@pytest.mark.parametrize("num_match", [1, 3])
def test_the_nth_match_on_the_last_record(with_rule, num_match):
    rlist = [_request(float(i), 200) for i in range(6)]
    rlist += [_request(6.0 + i, 503) for i in range(num_match)]
    for new, ref in (
        (CheckStatus(503, num_match, with_rule), RefCheckStatus(503, num_match, with_rule)),
        (CheckFailures(num_match, with_rule), RefCheckFailures(num_match, with_rule)),
    ):
        for start in range(len(rlist) + 1):
            got = new.evaluate_from(rlist, start, None)
            assert got == ref.evaluate_from(rlist, start, None)
        assert new.evaluate_from(rlist, 0, None).consumed == len(rlist)


def test_gremlin_synthesized_statuses_vanish_only_without_rule():
    rlist = [
        _request(0.0, 503, fault_applied="abort(503)"),
        _request(1.0, 503, gremlin_generated=True),
        _request(2.0, 503, fault_applied="delay(1.0)"),
        _request(3.0, None, error="reset"),
    ]
    for with_rule, num in itertools.product((True, False), (1, 2, 3, 4)):
        for new, ref in (
            (CheckStatus(503, num, with_rule), RefCheckStatus(503, num, with_rule)),
            (CheckFailures(num, with_rule), RefCheckFailures(num, with_rule)),
            (AtMostRequests(5, with_rule, num), RefAtMostRequests(5, with_rule, num)),
        ):
            assert new.evaluate_from(rlist, 0, None) == ref.evaluate_from(rlist, 0, None)


def test_empty_scopes():
    store = EventStore()
    checks = [
        HasTimeouts("A", "1s"),
        HasBoundedRetries("A", "B", 3),
        HasCircuitBreaker("A", "B"),
        HasBulkhead("A", "B", rate=1.0),
    ]
    for check in checks:
        assert _as_tuple(check.run(store)) == _as_tuple(reference_run(check, store))
    for new, ref in _STEP_PAIRS:
        for with_rule in (True, False):
            assert new(with_rule).evaluate_from([], 0, None) == ref(
                with_rule
            ).evaluate_from([], 0, None)


def test_all_latencies_none_keeps_max_observed_the_float_zero():
    store = EventStore()
    store.extend(
        ObservationRecord(timestamp=float(i), kind=kind, src="Up", dst="A", latency=None)
        for i in range(3)
        for kind in ("request", "reply")
    )
    check = HasTimeouts("A", "1s")
    result = check.run(store)
    assert _as_tuple(result) == _as_tuple(reference_run(check, store))
    assert type(result.data["max_observed"]) is float and result.data["max_observed"] == 0.0


def test_slow_replies_and_an_integer_latency_keep_their_type():
    store = EventStore()
    store.extend([_reply(0.0, 3), _reply(1.0, 0.25), _reply(2.0, 3.0), _reply(3.0, None)])
    store.extend(
        ObservationRecord(timestamp=float(i), kind="request", src="Up", dst="A", status=200)
        for i in range(4)
    )
    for limit in ("1s", 3, "5s"):
        check = HasTimeouts("A", limit)
        assert _as_tuple(check.run(store)) == _as_tuple(reference_run(check, store))
    assert type(HasTimeouts("A", "1s").run(store).data["max_observed"]) is int

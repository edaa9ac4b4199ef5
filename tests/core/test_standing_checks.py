"""A standing check resumed by ``Gremlin.check`` against a fresh ``check.run``.

``Gremlin.check`` keeps the state of each open-ended check and resumes
it: it reads only the records appended since the last call and re-reads
the requests that were still pending then, and it starts over when a
late record landed before its cursor or the store was cleared.  After
every step of a stream that interleaves appends, late records, pending
-> final writes, ``store.clear()`` and evaluations, every ``CheckResult``
field of the resumed check must equal a fresh ``check.run(store, since)``
— over hypothesis streams, and over a 60-stage chained session on the
28-service app with all of its plan's checks.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import build_socialnetwork_app, build_twotier
from repro.campaign import plan_campaign
from repro.core import (
    Gremlin,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
)
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore, ObservationRecord, Query


def _as_tuple(result) -> tuple:
    # Type-exact: an int where a float was is a difference too.
    return (
        result.name,
        result.passed,
        result.inconclusive,
        result.detail,
        [(key, type(value), value) for key, value in result.data.items()],
    )


# -- hypothesis streams ----------------------------------------------------------

#: Few instants, so ties and records landing before a cursor are common.
_times = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
    st.floats(min_value=0, max_value=8, allow_nan=False),
)
_pairs = st.sampled_from([("A", "B"), ("A", "B"), ("A", "C"), ("C", "B")])
_ids = st.sampled_from([None, "test-1", "test-2", "user-1"])
#: (status, error) of a finished request; (None, None) is pending.
_outcomes = st.sampled_from(
    [
        (None, None), (None, None), (None, None),
        (200, None), (503, None), (500, None), (None, "reset"), (503, "refused"),
    ]
)
_final_outcomes = st.sampled_from([(200, None), (503, None), (503, None), (None, "timeout")])

_append = st.tuples(
    st.just("append"),
    _times,
    st.sampled_from(["request", "request", "reply"]),
    _pairs,
    _ids,
    _outcomes,
    st.sampled_from([None, 0.2, 1.5, 3.0]),
    st.sampled_from([None, "abort(503)", "delay(1)"]),
)
_finish = st.tuples(
    st.just("finish"),
    st.integers(min_value=0, max_value=50),
    _final_outcomes,
    st.sampled_from([None, "abort(503)"]),
)
_steps = st.lists(
    st.one_of(_append, _append, _append, _finish, _finish, st.just(("clear",))),
    max_size=40,
)

#: Every pattern, with the shapes that take other paths: an ID glob
#: (a residual filter), a literal ID (read from the request-ID slice or
#: the edge's, whichever is shorter at the time), a trigger on any
#: failure, a breaker with and without recovery, a bulkhead with its
#: dependents discovered.
CHECKS = [
    HasTimeouts("B", "1s"),
    HasTimeouts("B", "1s", id_pattern="test-*"),
    HasTimeouts("B", "1s", id_pattern="test-1"),
    HasBoundedRetries("A", "B", 1, num_failures=2, window="2s"),
    HasBoundedRetries("A", "B", 1, failure_status=None, num_failures=2, window="2s"),
    HasBoundedRetries("A", "B", 0, num_failures=1, window=0.5, id_pattern="test-*"),
    HasCircuitBreaker("A", "B", threshold=2, tdelta="1s"),
    HasCircuitBreaker("A", "B", threshold=3, tdelta=0.5, check_recovery=False),
    HasCircuitBreaker("A", "B", threshold=1, tdelta=0.5, recovery_window=1.0),
    HasBulkhead("A", "B", rate=0.5),
]
WINDOWS = [None, 2.0]


@pytest.fixture(scope="module")
def deployment():
    return build_twotier().deploy(seed=1)


def _record(op) -> ObservationRecord:
    _, ts, kind, (src, dst), request_id, (status, error), latency, fault = op
    if kind == "request":
        latency = None
    return ObservationRecord(
        timestamp=ts,
        kind=kind,
        src=src,
        dst=dst,
        request_id=request_id,
        status=status,
        error=error,
        latency=latency,
        fault_applied=fault,
        gremlin_generated=kind == "reply" and fault is not None,
    )


def _replay(deployment, steps):
    """Run ``steps``; after each, every check in every window through the
    facade and afresh.  Returns the mismatches."""
    store = deployment.store = EventStore()
    gremlin = Gremlin(deployment)
    pending: list[ObservationRecord] = []
    mismatches = []
    for number, op in enumerate(steps):
        if op[0] == "append":
            record = _record(op)
            store.append(record)
            if record.is_request and record.status is None and record.error is None:
                pending.append(record)
        elif op[0] == "finish":
            if pending:
                record = pending.pop(op[1] % len(pending))
                # One step, pending to final, as the agent writes it.
                (record.status, record.error), record.fault_applied = op[2], op[3]
        else:
            store.clear()
            pending.clear()
        for check in CHECKS:
            for since in WINDOWS:
                got = _as_tuple(gremlin.check(check, since=since))
                want = _as_tuple(check.run(store, since=since))
                if got != want:
                    mismatches.append((number, op, check.name, since, got, want))
    return mismatches


@given(steps=_steps)
@settings(max_examples=150, deadline=None)
def test_a_resumed_check_equals_a_fresh_run_after_every_step(deployment, steps):
    assert _replay(deployment, steps) == []


@pytest.mark.parametrize(
    "steps",
    [
        # A late record lands before the cursor: the fold starts over.
        [
            ("append", 3.0, "request", ("A", "B"), "test-1", (503, None), None, None),
            ("append", 5.0, "request", ("A", "B"), "test-1", (200, None), None, None),
            ("append", 1.0, "request", ("A", "B"), "test-1", (503, None), None, None),
        ],
        # A pending request is finished after it was read: it is re-read,
        # and it is the trigger's earlier hit.
        [
            ("append", 1.0, "request", ("A", "B"), "test-1", (None, None), None, None),
            ("append", 2.0, "request", ("A", "B"), "test-1", (503, None), None, None),
            ("append", 4.0, "request", ("A", "B"), "test-1", (200, None), None, None),
            ("finish", 0, (503, None), None),
        ],
        # Cleared, then refilled with fewer records than the cursor read.
        [
            ("append", 1.0, "reply", ("A", "B"), "test-1", (200, None), 3.0, None),
            ("append", 2.0, "request", ("A", "B"), "test-1", (None, None), None, None),
            ("clear",),
            ("append", 0.5, "request", ("A", "B"), "test-1", (503, None), None, None),
        ],
    ],
    ids=["late-record", "pending-then-final", "cleared"],
)
def test_each_restart_and_re_read_is_needed(deployment, steps):
    assert _replay(deployment, steps) == []


def test_state_is_kept_per_live_check_for_its_whole_history(deployment):
    """A standing check keeps one state, its whole history's, resumed
    across windowed calls; a windowed call keeps none; and none is kept
    once the check object is gone."""
    deployment.store = EventStore()
    gremlin = Gremlin(deployment)
    check = HasTimeouts("B", "1s")
    gremlin.check(check)
    state = gremlin._standing[id(check)][1]
    for since in (1.0, 2.0, 3.0, None):
        gremlin.check(check, since=since)
    assert list(gremlin._standing) == [id(check)]
    assert gremlin._standing[id(check)][1] is state
    for _ in range(50):
        gremlin.check(HasTimeouts("B", "1s"))
    gc.collect()
    assert list(gremlin._standing) == [id(check)]


# -- a chained session on the 28-service app ----------------------------------------


def test_a_60_stage_session_resumes_every_plan_check(monkeypatch):
    """The ``chained_session`` benchmark's stages with every check of the
    plan, windowed to the stage and over the whole history: the facade's
    result equals a fresh run at every stage, and after the first stage
    a full-history read starts over only where the store says so."""
    plan = plan_campaign(build_socialnetwork_app, seed=11)
    checks = [check for entry in plan.entries for check in entry.recipe.checks]
    checks += [
        HasCircuitBreaker(check.src, check.dst, threshold=3, tdelta="2s")
        for check in checks
        if isinstance(check, HasBoundedRetries)
    ]
    load = plan.entries[0].load
    deployment = build_socialnetwork_app().deploy(seed=11)
    source = deployment.add_traffic_source(load.entry, name=load.source_name)
    gremlin = Gremlin(deployment)
    store, sim = deployment.store, deployment.sim

    reads = []
    follow = store.follow

    def counted(query: Query, cursor=None):
        fresh, records, after = follow(query, cursor)
        held = cursor is not None and cursor[1] > 0  # it had read something
        reads.append((query.since is None, held, fresh))
        return fresh, records, after

    monkeypatch.setattr(store, "follow", counted)
    mismatches = []
    for stage in range(60):
        entry = plan.entries[2 * stage % len(plan.entries)]
        since = sim.now
        gremlin.inject(*entry.recipe.scenarios)
        driver = ClosedLoopLoad(num_requests=5, think_time=entry.load.think_time)
        sim.process(driver.driver(source), name=f"load/{stage}")
        sim.run()
        sim.run(until=sim.now + entry.settle)
        for check in checks:
            for window in (since, None):
                got = _as_tuple(gremlin.check(check, since=window))
                want = _as_tuple(check.run(store, since=window))
                if got != want:
                    mismatches.append((stage, check.name, window, got, want))
        gremlin.clear()
    assert mismatches == []
    assert len(store) > 20_000
    resumed = [fresh for full, held, fresh in reads if full and held]
    assert resumed and not any(resumed)

"""``HasBulkhead`` reads its dependents' request rates off the edge index.

A request rate needs three numbers per edge: how many requests ``src``
sent the callee in the window, and the first and last of their
timestamps.  ``EventStore.request_spans`` answers them for all of
``src``'s callees in one read: indexed, two bisects per
``(request, src, dst)`` slice and no record touched; linear (the
oracle), by ``dependents`` and ``search``.

Every ``HasBulkhead`` result must equal, field for field and type-exact,
a reference that filters the whole log with per-record loops and keeps
its own copy of the rate formula — on the indexed store and the linear
store — over hand-built edge cases and over the stage windows of a
chained session on the 28-service app.  ``request_spans`` itself must
agree between the two strategies.
"""

from __future__ import annotations

import collections
import fnmatch
import os

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import plan_campaign
from repro.core import Gremlin, HasBulkhead
from repro.core.patterns import CheckResult
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore, ObservationKind, ObservationRecord

from tests.conftest import CallCount

# -- the reference: per-record loops over the whole log ------------------------------


def _id_matches(pattern, request_id) -> bool:
    if pattern is None or pattern == "*":
        return True
    return request_id is not None and fnmatch.fnmatchcase(request_id, pattern)


def _reference(check, records, since=None, until=None) -> CheckResult:
    sent = [
        record
        for record in records
        if record.kind == ObservationKind.REQUEST
        and record.src == check.src
        and (since is None or record.timestamp >= since)
        and (until is None or record.timestamp <= until)
    ]
    others = check.other_dsts
    if others is None:
        others = sorted({record.dst for record in sent} - {check.slow_dst})
    if not others:
        return check._no_data(
            f"{check.src!r} has no observed dependents other than {check.slow_dst!r}"
        )
    rates = {}
    for dst in others:
        stamps = [
            record.timestamp
            for record in sent
            if record.dst == dst and _id_matches(check.id_pattern, record.request_id)
        ]
        # The formula, written out again: n requests span n - 1 gaps.
        rate = 0.0
        if len(stamps) >= 2 and stamps[-1] - stamps[0] > 0:
            rate = (len(stamps) - 1) / (stamps[-1] - stamps[0])
        rates[dst] = rate
    starved = {dst: r for dst, r in rates.items() if r < check.rate}
    detail = (
        "rates to other dependents: "
        + ", ".join(f"{dst}={r:.2f}/s" for dst, r in sorted(rates.items()))
        + (f"; starved: {sorted(starved)}" if starved else "")
    )
    return CheckResult(check.name, not starved, detail, data={"rates": rates})


def _as_tuple(result: CheckResult) -> tuple:
    # Type-exact, so an int where a float was is a difference too.
    return (
        result.name,
        result.passed,
        result.inconclusive,
        result.detail,
        [(key, type(value), value) for key, value in result.data.items()],
        [(dst, type(rate), rate) for dst, rate in result.data.get("rates", {}).items()],
    )


def _stores(records) -> dict:
    stores = {}
    for strategy in ("indexed", "linear"):
        stores[strategy] = EventStore(strategy=strategy)
        stores[strategy].extend(records)
    return stores


def _assert_every_lane_equals_the_reference(store, checks, windows) -> int:
    """``store``'s log in a store of each strategy; each check run on
    those and on ``store`` itself: every result equals the reference."""
    records = store.all_records()
    lanes = _stores(records)
    lanes["given"] = store
    compared = 0
    for since, until in windows:
        for check in checks:
            want = _as_tuple(_reference(check, records, since, until))
            for name, lane in lanes.items():
                assert _as_tuple(check.run(lane, since, until)) == want, (name, check.name)
            compared += 1
    return compared


# -- hand-built edge cases ---------------------------------------------------------


def _request(ts, src="Svc", dst="Db", request_id="test-1") -> ObservationRecord:
    return ObservationRecord(
        timestamp=ts, kind="request", src=src, dst=dst, request_id=request_id, status=200
    )


def _reply(ts, src="Svc", dst="Db") -> ObservationRecord:
    return ObservationRecord(
        timestamp=ts, kind="reply", src=src, dst=dst, request_id="test-1", status=200, latency=0.1
    )


def _edge_log() -> EventStore:
    """Svc calls Db steadily, Cache once, Queue at one instant only,
    Mail twice at the window edges, Log with ids that a glob splits;
    Front calls Svc; replies everywhere that must not count."""
    store = EventStore()
    for index in range(20):
        ts = index * 0.5
        store.append(_request(ts, dst="Db", request_id=f"test-{index}"))
        store.append(_reply(ts + 0.01, dst="Db"))
        store.append(_request(ts, src="Front", dst="Svc", request_id=f"test-{index}"))
        store.append(
            _request(ts + 0.2, dst="Log", request_id=f"{'user' if index % 3 else 'test'}-{index}")
        )
    store.append(_request(3.0, dst="Cache"))
    for _ in range(4):
        store.append(_request(6.0, dst="Queue"))
    store.append(_request(2.0, dst="Mail", request_id=None))
    store.append(_request(8.0, dst="Mail", request_id=None))
    return store


_WINDOWS = [
    (None, None),
    (2.0, None),  # starts on a Mail record and a Db record
    (None, 8.0),  # ends on one
    (2.0, 8.0),
    (2.01, 7.99),  # just inside both
    (3.0, 3.0),  # one instant: Cache's only record, Db's one
    (6.0, 6.0),  # Queue's instant alone
    (9.6, None),  # past every request
]

_EDGE_CHECKS = [
    HasBulkhead("Svc", "Db", rate=1.0),
    HasBulkhead("Svc", "Log", rate=0.5),
    HasBulkhead("Svc", "Nowhere", rate=0.1),
    HasBulkhead("Svc", "Db", rate=1.0, other_dsts=["Queue", "Cache", "Nowhere", "Db"]),
    HasBulkhead("Svc", "Db", rate=1.0, other_dsts=["Log", "Log"]),
    HasBulkhead("Svc", "Db", rate=1.0, other_dsts=[]),
    HasBulkhead("Svc", "Db", rate=0.5, id_pattern="test-*"),
    HasBulkhead("Svc", "Db", rate=0.5, id_pattern="test-1?"),
    HasBulkhead("Svc", "Db", rate=0.5, id_pattern="user-4"),
    HasBulkhead("Svc", "Db", rate=0.5, other_dsts=["Log", "Mail"], id_pattern="test-*"),
    HasBulkhead("Front", "Svc", rate=1.0),  # slow_dst is the only dependent
    HasBulkhead("Nobody", "Svc", rate=1.0),
]


def test_edge_cases_equal_the_reference_on_every_lane():
    store = _edge_log()
    compared = _assert_every_lane_equals_the_reference(store, _EDGE_CHECKS, _WINDOWS)
    assert compared == len(_WINDOWS) * len(_EDGE_CHECKS)


def test_the_edge_cases_are_not_vacuous():
    """A one-record edge and a one-instant edge read 0.0, the slow
    callee alone is inconclusive, a glob changes a rate, and both
    verdicts occur."""
    store = _edge_log()
    full = HasBulkhead("Svc", "Db", rate=1.0).run(store)
    assert full.data["rates"]["Cache"] == 0.0 and full.data["rates"]["Queue"] == 0.0
    assert full.data["rates"]["Log"] > 0.0
    assert list(full.data["rates"]) == ["Cache", "Log", "Mail", "Queue"]
    assert HasBulkhead("Front", "Svc", rate=1.0).run(store).inconclusive
    globbed = HasBulkhead("Svc", "Db", rate=0.5, id_pattern="test-*").run(store)
    assert globbed.data["rates"]["Log"] != full.data["rates"]["Log"]
    assert globbed.data["rates"]["Mail"] == 0.0  # untagged requests match no glob
    given = HasBulkhead("Svc", "Db", rate=1.0, other_dsts=["Queue", "Cache", "Nowhere", "Db"])
    assert list(given.run(store).data["rates"]) == ["Queue", "Cache", "Nowhere", "Db"]
    verdicts = {check.run(store).passed for check in _EDGE_CHECKS}
    assert verdicts == {True, False}


def test_a_late_record_sunk_into_the_window_counts():
    store = _edge_log()
    check = HasBulkhead("Svc", "Db", rate=1.0)
    before = check.run(store, 2.0, 8.0).data["rates"]["Cache"]
    store.append(_request(2.5, dst="Cache"))  # older than the newest: sunk
    after = check.run(store, 2.0, 8.0)
    assert before == 0.0 and after.data["rates"]["Cache"] == 2.0
    _assert_every_lane_equals_the_reference(store, _EDGE_CHECKS, _WINDOWS)


def test_a_read_after_clear_sees_only_the_new_log():
    store = _edge_log()
    for check in _EDGE_CHECKS:
        check.run(store)
    store.clear()
    for index in range(5):
        store.append(_request(20.0 + index, dst="Db"))
        store.append(_request(20.0 + 2 * index, dst="Cache"))
    result = HasBulkhead("Svc", "Db", rate=1.0).run(store)
    assert result.data["rates"] == {"Cache": 0.5}
    _assert_every_lane_equals_the_reference(store, _EDGE_CHECKS, _WINDOWS + [(20.0, 24.0)])


# -- the store read itself ---------------------------------------------------------


def test_request_spans_indexed_equals_linear_on_the_edge_log():
    store = _edge_log()
    linear = _stores(store.all_records())["linear"]
    reads = [
        dict(),
        dict(exclude="Db"),
        dict(exclude="Nowhere"),
        dict(dsts=["Queue", "Nowhere", "Db", "Queue"]),
        dict(id_pattern="test-*"),
        dict(dsts=["Log", "Mail"], id_pattern="user-*"),
        dict(dsts=["Queue", "Db", "Nowhere"], exclude="Db"),
    ]
    for src in ("Svc", "Front", "Nobody"):
        for since, until in _WINDOWS:
            for read in reads:
                got = store.request_spans(src, since, until, **read)
                assert got == linear.request_spans(src, since, until, **read)
                named = read.get("dsts") or sorted(span[0] for span in got)
                assert [span[0] for span in got] == [
                    dst for dst in named if dst != read.get("exclude")
                ]
    assert store.request_spans("Svc", 6.0, 6.0) == [("Db", 1, 6.0, 6.0), ("Queue", 4, 6.0, 6.0)]
    assert store.request_spans("Svc", 2.0, 8.0, dsts=["Nowhere"]) == [("Nowhere", 0, None, None)]


def test_an_indexed_bulkhead_builds_no_query_and_searches_nothing():
    store = _edge_log()
    checks = [c for c in _EDGE_CHECKS if c.id_pattern == "*"]
    for check in checks:
        check.run(store)  # first use: lazy imports, caches
    names = collections.Counter()

    class NamedCalls(CallCount):
        def _hook(self, frame, event, arg):
            super()._hook(frame, event, arg)
            if event == "call" and self._package_of.get(frame.f_code) is not None:
                code = frame.f_code
                names[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    with NamedCalls() as calls:
        for check in checks:
            for since, until in _WINDOWS:
                check.run(store, since, until)
    assert calls.total > 0
    assert names["store.py:request_spans"] == len(checks) * len(_WINDOWS)
    for name in ("query.py:__init__", "store.py:search", "store.py:dependents", "store.py:_plan"):
        assert names[name] == 0, name


# -- a chained session on the 28-service app ------------------------------------------


@pytest.fixture(scope="module")
def session():
    """20 inject / load / clear stages on one socialnetwork deployment,
    as the ``chained_session`` benchmark runs them; the deployment's
    store, the stage starts and the plan's bulkheads plus the shapes
    the planner does not emit."""
    plan = plan_campaign(build_socialnetwork_app, seed=11)
    load = plan.entries[0].load
    deployment = build_socialnetwork_app().deploy(seed=11)
    source = deployment.add_traffic_source(load.entry, name=load.source_name)
    gremlin = Gremlin(deployment)
    sim = deployment.sim
    starts = []
    for stage in range(20):
        entry = plan.entries[2 * stage % len(plan.entries)]
        starts.append(sim.now)
        gremlin.inject(*entry.recipe.scenarios)
        driver = ClosedLoopLoad(num_requests=5, think_time=entry.load.think_time)
        sim.process(driver.driver(source), name=f"load/{stage}")
        sim.run()
        sim.run(until=sim.now + entry.settle)
        gremlin.clear()
    starts.append(sim.now)
    planned = [
        check
        for entry in plan.entries
        for check in entry.recipe.checks
        if isinstance(check, HasBulkhead)
    ]
    checks = list({check: None for check in planned})
    for check in checks[:6]:
        dependents = deployment.store.dependents(check.src)
        checks += [
            HasBulkhead(check.src, check.slow_dst, rate=0.5, other_dsts=dependents + ["nowhere"]),
            HasBulkhead(check.src, check.slow_dst, rate=0.5, id_pattern="test-1*"),
        ]
    return deployment.store, starts, checks


def test_the_session_bulkheads_equal_the_reference_in_every_window(session):
    store, starts, checks = session
    windows = [(None, None)]
    windows += [(since, None) for since in starts[:-1:4]]
    windows += [(since, until) for since, until in zip(starts[:-1:3], starts[1::3])]
    compared = _assert_every_lane_equals_the_reference(store, checks, windows)
    assert compared == len(windows) * len(checks)
    results = [check.run(store, since, until) for check in checks for since, until in windows]
    assert {(r.passed, r.inconclusive) for r in results} == {
        (True, False), (False, False), (False, True)
    }
    assert any("starved" in r.detail for r in results)
    assert len(store) > 5_000


def test_request_spans_indexed_equals_linear_over_the_session(session):
    store, starts, _ = session
    linear = _stores(store.all_records())["linear"]
    callers = sorted({r.src for r in store.all_records() if r.kind == "request"})
    windows = [(None, None)] + list(zip(starts[:-1], starts[1:])) + [(starts[7], None)]
    spans = 0
    for src in callers:
        for since, until in windows:
            for read in (dict(), dict(id_pattern="test-1*"), dict(exclude="nginx")):
                got = store.request_spans(src, since, until, **read)
                assert got == linear.request_spans(src, since, until, **read)
                spans += len(got)
    assert spans > 1_000

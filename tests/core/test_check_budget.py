"""What a full-history check costs the interpreter does not grow with its scope.

The Assertion Checker scans a scope in comprehensions and builtins
(``list.count``, ``list.index``, ``max``) and finds a caller's
dependents from the store's identity slices, so the number of Python
calls into ``src/repro`` per check is fixed by the check, not by how
many records its scope holds.  Each check below runs over the same log
shape at 1 000 and at 10 000 records, with the same outcome, and must
enter exactly as many functions at both sizes.  Calls are counted the
benchmark ledger's way (``tests.conftest.CallCount``): a generator
resume counts like a call, a C builtin not at all.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AtLeastRequests,
    AtMostRequests,
    CheckFailures,
    CheckStatus,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
)
from repro.logstore import EventStore, ObservationRecord, Query

from tests.conftest import CallCount

#: Front calls Svc; Svc calls Db, Cache and Queue.  Every edge gets a
#: request and a reply per round, so each scope grows with the log.
_EDGES = [("Front", "Svc"), ("Svc", "Db"), ("Svc", "Cache"), ("Svc", "Queue")]


def _log(size: int) -> EventStore:
    """About ``size`` records whose checks come out the same at any size:
    Db fails with 503 (half of them Gremlin aborts) and resets only in
    its last rounds, one Front call never completes, two Svc replies
    are slow."""
    store = EventStore()
    rounds = size // (2 * len(_EDGES))
    for index in range(rounds):
        ts = index * 0.5
        tail = index >= rounds - 6
        for src, dst in _EDGES:
            failing = dst == "Db" and tail
            aborted = failing and index % 2 == 0
            status = 503 if failing else 200
            error = "reset" if failing and index == rounds - 1 else None
            request = ObservationRecord(
                timestamp=ts,
                kind="request",
                src=src,
                dst=dst,
                request_id=f"test-{index}",
                status=None if error else status,
                error=error,
                fault_applied="abort(503)" if aborted else None,
            )
            if src == "Front" and index == rounds // 2:
                request.status = None  # never completed
            store.append(request)
            store.append(
                ObservationRecord(
                    timestamp=ts + 0.01,
                    kind="reply",
                    src=src,
                    dst=dst,
                    request_id=f"test-{index}",
                    status=request.status,
                    error=error,
                    latency=3.0 if src == "Front" and index in (1, rounds - 2) else 0.01,
                    gremlin_generated=aborted,
                )
            )
    return store


_SIZES = (1_000, 10_000)


@pytest.fixture(scope="module")
def logs():
    return {size: _log(size) for size in _SIZES}


def _calls(run) -> tuple[int, object]:
    run()  # first use: lazy imports, caches, an interned name or two
    with CallCount() as calls:
        outcome = run()
    return calls.total, outcome


PATTERN_CHECKS = {
    "HasTimeouts": HasTimeouts("Svc", "1s"),
    "HasBoundedRetries": HasBoundedRetries("Svc", "Db", 3, num_failures=5, window="10s"),
    "HasBoundedRetries-any-failure": HasBoundedRetries(
        "Svc", "Db", 3, failure_status=None, num_failures=5
    ),
    "HasBoundedRetries-untriggered": HasBoundedRetries("Svc", "Cache", 3),
    "HasCircuitBreaker": HasCircuitBreaker("Svc", "Db", threshold=5, tdelta="1s"),
    "HasBulkhead": HasBulkhead("Svc", "Db", rate=1.0),
    "HasBulkhead-given": HasBulkhead("Svc", "Db", rate=1.0, other_dsts=["Cache", "Queue"]),
}


@pytest.mark.parametrize("name", sorted(PATTERN_CHECKS))
def test_a_pattern_check_enters_as_many_functions_at_10k_records_as_at_1k(logs, name):
    check = PATTERN_CHECKS[name]
    measured = {}
    for size, store in logs.items():
        calls, result = _calls(lambda: check.run(store))
        measured[size] = calls, (result.passed, result.inconclusive)
    assert measured[1_000] == measured[10_000]
    assert measured[1_000][0] < 80


_STEPS = {
    "CheckStatus-found": lambda wr: CheckStatus(503, 2, wr),
    "CheckStatus-not-found": lambda wr: CheckStatus(500, 1, wr),
    "CheckFailures": lambda wr: CheckFailures(3, wr),
    "AtMostRequests": lambda wr: AtMostRequests("10min", wr, 5),
    "AtLeastRequests": lambda wr: AtLeastRequests("10min", wr, 5),
}


@pytest.mark.parametrize("with_rule", [True, False])
@pytest.mark.parametrize("name", sorted(_STEPS))
def test_a_base_assertion_enters_as_many_functions_at_10k_records_as_at_1k(
    logs, name, with_rule
):
    step = _STEPS[name](with_rule)
    measured = {}
    for size, store in logs.items():
        rlist = store.search(Query(kind="request", src="Svc", dst="Db"))
        calls, outcome = _calls(lambda: step.evaluate(rlist, None))
        measured[size] = calls, outcome.passed
    assert measured[1_000] == measured[10_000]
    assert measured[1_000][0] < 10


def test_the_logs_differ_in_size_only(logs):
    """Guard on the fixture: the two logs give every check the same
    verdict, and the larger one really is ten times the records."""
    small, large = logs[1_000], logs[10_000]
    assert len(large) >= 9 * len(small)
    for check in PATTERN_CHECKS.values():
        a, b = check.run(small), check.run(large)
        assert (a.passed, a.inconclusive) == (b.passed, b.inconclusive)
    verdicts = {(c.run(small).passed, c.run(small).inconclusive) for c in PATTERN_CHECKS.values()}
    assert len(verdicts) > 1

"""Table 3: the assertion-checker interface, exercised and timed.

Paper Table 3 lists the queries (GetRequests/GetReplies), base
assertions (NumRequests, ReplyLatency, AtMostRequests, CheckStatus,
RequestRate, Combine) and pattern checks (HasTimeouts,
HasBoundedRetries, HasCircuitBreaker, HasBulkHead).  This benchmark
runs each interface entry against a store of 20 000 observation
records and reports the evaluation cost — the "assertions run in
milliseconds" half of the paper's fast-feedback claim (Fig 7's
assertion series is the end-to-end version of the same measurement).
"""

import time

import pytest

from repro.core import (
    AtMostRequests,
    CheckStatus,
    Combine,
    HasBoundedRetries,
    HasBulkhead,
    HasCircuitBreaker,
    HasTimeouts,
    get_replies,
    get_requests,
    num_requests,
    reply_latency,
    request_rate,
)
from repro.logstore import EventStore, ObservationRecord, Query

RECORDS = 20_000


@pytest.fixture(scope="module")
def big_store():
    store = EventStore()
    for index in range(RECORDS // 2):
        ts = index * 0.01
        failed = index % 10 < 3
        store.append(
            ObservationRecord(
                timestamp=ts,
                kind="request",
                src="ServiceA",
                dst="ServiceB" if index % 3 else "ServiceC",
                request_id=f"test-{index}",
                method="GET",
                uri="/api",
                status=503 if failed else 200,
                fault_applied="abort(503)" if failed else None,
            )
        )
        store.append(
            ObservationRecord(
                timestamp=ts + 0.005,
                kind="reply",
                src="ServiceA",
                dst="ServiceB" if index % 3 else "ServiceC",
                request_id=f"test-{index}",
                status=503 if failed else 200,
                latency=0.005,
                gremlin_generated=failed,
            )
        )
    return store


ENTRIES = {
    "GetRequests": lambda store, rlist: get_requests(store, "ServiceA", "ServiceB", "test-*"),
    "GetReplies": lambda store, rlist: get_replies(store, "ServiceA", "ServiceB", "test-*"),
    "NumRequests": lambda store, rlist: num_requests(rlist, tdelta="1min", with_rule=True),
    "ReplyLatency": lambda store, rlist: reply_latency(rlist, with_rule=False),
    "AtMostRequests": lambda store, rlist: AtMostRequests("1min", True, 10**9)(rlist),
    "CheckStatus": lambda store, rlist: CheckStatus(503, 5, True)(rlist),
    "RequestRate": lambda store, rlist: request_rate(rlist),
    "Combine": lambda store, rlist: Combine(
        (CheckStatus, 503, 5, True), (AtMostRequests, "1min", True, 10**9)
    )(rlist),
    "HasTimeouts": lambda store, rlist: HasTimeouts("ServiceB", "1s").run(store),
    "HasBoundedRetries": lambda store, rlist: HasBoundedRetries(
        "ServiceA", "ServiceB", 10**9, window="10s"
    ).run(store),
    "HasCircuitBreaker": lambda store, rlist: HasCircuitBreaker(
        "ServiceA", "ServiceB", threshold=5, tdelta="1s", check_recovery=False
    ).run(store),
    "HasBulkhead": lambda store, rlist: HasBulkhead("ServiceA", "ServiceB", rate=0.1).run(store),
}

_timings: dict[str, float] = {}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_table3_interface_entry_cost(benchmark, report, big_store, entry):
    rlist = get_requests(big_store, "ServiceA", "ServiceB")
    runner = ENTRIES[entry]
    result = benchmark(lambda: runner(big_store, rlist))
    assert result is not None
    _timings[entry] = benchmark.stats.stats.mean

    if len(_timings) == len(ENTRIES):
        lines = [
            f"  {name:<18} {mean * 1e3:9.3f} ms"
            for name, mean in _timings.items()
        ]
        # Fast-feedback claim: every entry evaluates in < 100 ms even
        # against a 20k-record store.
        assert all(mean < 0.1 for mean in _timings.values())
        report.add(
            f"Table 3 — assertion interface cost over {RECORDS} records",
            "\n".join(lines) + "\n  paper: assertions give feedback in seconds -> "
            "reproduced (milliseconds per entry)",
        )


# --------------------------------------------------------------------------
# Indexed vs linear scaling: the same assertion suite against stores of
# 1k / 10k / 100k records.  A realistic topology has many service pairs,
# so edge-scoped checks touch a small slice of the store — exactly the
# case the secondary indexes exploit.  Results land in BENCH_logstore.json.
# --------------------------------------------------------------------------

SCALES = (1_000, 10_000, 100_000)
_FRONTS = tuple(f"Front{i}" for i in range(8))
_BACKS = tuple(f"Back{i}" for i in range(8))
_EDGES = [(src, dst) for src in _FRONTS for dst in _BACKS]  # 64 pairs
_SUITE_REPEATS = 5


def _topology_records(total):
    """``total`` records round-robined over 16 service edges."""
    records = []
    for index in range(total // 2):
        src, dst = _EDGES[index % len(_EDGES)]
        ts = index * 0.001
        failed = index % 10 < 3
        records.append(
            ObservationRecord(
                timestamp=ts,
                kind="request",
                src=src,
                dst=dst,
                request_id=f"test-{index}",
                method="GET",
                uri="/api",
                status=503 if failed else 200,
                fault_applied="abort(503)" if failed else None,
            )
        )
        records.append(
            ObservationRecord(
                timestamp=ts + 0.0005,
                kind="reply",
                src=src,
                dst=dst,
                request_id=f"test-{index}",
                status=503 if failed else 200,
                latency=0.0005,
                gremlin_generated=failed,
            )
        )
    return records


def _assertion_suite(store):
    """The Table-3 pattern checks scoped to one service edge; returns
    the outcome tuple so both strategies can be compared for equality."""
    checks = [
        HasTimeouts("Back0", "1s"),
        HasBoundedRetries("Front0", "Back0", 10**9, window="10s"),
        HasCircuitBreaker("Front0", "Back0", threshold=5, tdelta="1s", check_recovery=False),
        HasBulkhead("Front0", "Back0", rate=0.1),
    ]
    return tuple((check.name, check.run(store).passed) for check in checks)


def _time_suite(store):
    best = float("inf")
    outcome = None
    for _ in range(_SUITE_REPEATS):
        start = time.perf_counter()
        outcome = _assertion_suite(store)
        best = min(best, time.perf_counter() - start)
    return best, outcome


@pytest.mark.parametrize("scale", SCALES)
def test_indexed_vs_linear_assertion_scaling(report, bench_file, scale):
    records = _topology_records(scale)
    numbers = {}
    outcomes = {}
    for strategy in ("indexed", "linear"):
        store = EventStore(strategy=strategy)
        start = time.perf_counter()
        store.extend(records)
        store.all_records()  # force the sort so ingest cost is all-in
        ingest = time.perf_counter() - start

        probe = Query(kind="request", src="Front0", dst="Back0")
        query_repeats = 30
        start = time.perf_counter()
        for _ in range(query_repeats):
            store.search(probe)
        query_elapsed = time.perf_counter() - start

        suite_elapsed, outcomes[strategy] = _time_suite(store)
        numbers[strategy] = {
            "ingest_records_per_sec": round(scale / ingest),
            "queries_per_sec": round(query_repeats / query_elapsed),
            "assertion_suite_ms": round(suite_elapsed * 1e3, 3),
        }

    # Correctness first: both strategies must judge the suite identically.
    assert outcomes["indexed"] == outcomes["linear"]

    speedup = (
        numbers["linear"]["assertion_suite_ms"] / numbers["indexed"]["assertion_suite_ms"]
    )
    entry = dict(numbers)
    entry["assertion_suite_speedup"] = round(speedup, 2)
    bench_file("BENCH_logstore.json")[str(scale)] = entry

    report.add(
        f"Log-store scaling — assertion suite over {scale} records",
        "\n".join(
            f"  {strategy:<8} ingest {stats['ingest_records_per_sec']:>9}/s   "
            f"queries {stats['queries_per_sec']:>7}/s   "
            f"suite {stats['assertion_suite_ms']:>9.3f} ms"
            for strategy, stats in numbers.items()
        )
        + f"\n  indexed speedup: {speedup:.1f}x",
    )

    # Acceptance: the indexed engine beats the linear scan by >= 5x on
    # the full assertion suite at the 100k-record scale.
    if scale == max(SCALES):
        assert speedup >= 5.0, f"expected >=5x at {scale} records, got {speedup:.2f}x"

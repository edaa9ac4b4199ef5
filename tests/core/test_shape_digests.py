"""``shape_digests_of`` straight from the record stream, against the
composition it replaced.

The exploration loop's coverage signal and the fuzz battery's
ID-insensitive comparison both read one shape digest per request.  They
are computed in one walk over the store's records, with no ``Span``,
``TraceNode`` or ``Trace`` built.  The reference below is the earlier
composition, kept here verbatim: group the records by request ID,
rebuild each request's ``Trace`` with ``reconstruct_from_records`` and
hash it with the per-subtree text encoder.  Every digest, and the order
of the requests in the result, must come out equal over seeded random
record streams and over the stream anomalies ``assemble_spans`` names
one by one.

The cost pin runs one faulted seed-11 ``deepfanout`` execution and
counts, through test-only patches: no span or tree object is built,
each distinct node head is JSON-encoded once and each distinct request
payload is hashed once.
"""

from __future__ import annotations

import hashlib
import json
import random
import types

import pytest

from repro.apps.outages import SEEDED_BUG_SUITE
from repro.core.gremlin import run_faulted
from repro.explore.compiler import compile_scenarios
from repro.explore.executor import _manifest_load
from repro.explore.runner import discover_space
from repro.logstore import EventStore, ObservationKind, ObservationRecord
from repro.observability import trace as trace_module
from repro.observability.spans import Span, span_rows
from repro.observability.trace import (
    Trace,
    TraceNode,
    reconstruct_from_records,
    shape_digests_of,
    trace_shape_digest,
)

# -- the reference: the composition shape_digests_of replaced ---------------


def reference_shape_text(node):
    span = node.span
    head = json.dumps(
        [span.src, span.dst, span.status, bool(span.error), span.fault_applied],
        separators=(",", ":"),
    )
    children = sorted([reference_shape_text(child) for child in node.children])
    return head[:-1] + ",[" + ",".join(children) + "]]"


def reference_trace_digest(trace):
    texts = sorted([reference_shape_text(root) for root in trace.roots])
    payload = ("[" + ",".join(texts) + "]").encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def reference_traces(store):
    by_request = {}
    for record in store.all_records():
        if record.request_id is not None:
            by_request.setdefault(record.request_id, []).append(record)
    return {
        request_id: reconstruct_from_records(request_id, group)
        for request_id, group in by_request.items()
    }


def reference_digests(store):
    return {
        request_id: reference_trace_digest(trace)
        for request_id, trace in reference_traces(store).items()
    }


def assert_matches_reference(store):
    got = shape_digests_of(store)
    expected = reference_digests(store)
    assert list(got.items()) == list(expected.items())
    # The Trace entry point shares the one canonical-text definition.
    traces = reference_traces(store)
    for request_id, trace in traces.items():
        assert trace_shape_digest(trace) == expected[request_id]
    # The record -> span rule's two writers, the light fold and the full
    # one, agree on every span of every request.
    rows = span_rows(store.all_records())
    assert list(rows) == list(traces)
    for request_id, trace in traces.items():
        assert rows[request_id] == {
            span.span_id: [
                span.src,
                span.dst,
                span.status,
                span.error,
                span.fault_applied,
                span.parent_span,
            ]
            for span in trace.spans
        }
    return got


def store_of(records):
    store = EventStore()
    store.extend(records)
    return store


def record(kind, span_id, parent, src="a", dst="b", t=0.0, request_id="r1", **extra):
    return ObservationRecord(
        timestamp=t,
        kind=kind,
        src=src,
        dst=dst,
        src_instance=f"{src}-0",
        request_id=request_id,
        method="GET",
        uri="/",
        span_id=span_id,
        parent_span=parent,
        **extra,
    )


def request(span_id, parent, src="a", dst="b", t=0.0, **extra):
    return record(ObservationKind.REQUEST, span_id, parent, src, dst, t, **extra)


def reply(span_id, parent, src="a", dst="b", t=1.0, status=200, **extra):
    return record(
        ObservationKind.REPLY, span_id, parent, src, dst, t, status=status, **extra
    )


# -- seeded random streams ----------------------------------------------------

REQUEST_IDS = ["r1", "r2", "r3", None]
SPAN_IDS = [f"s{index}" for index in range(8)] + [None]
PARENTS = [None, None, "ghost"] + SPAN_IDS[:-1]
NAMES = ["a", "b", "ü", "服务", 'x"y', "\\"]
STATUSES = [None, 200, 200, 503, 1, True, 1.0, 0, False, 0.0, -0.0]
ERRORS = [None, None, "", "reset", "timeout"]
FAULTS = [None, None, "abort(503)", "delay(1.5)+abort(500)", "ä-fault", True]


def random_records(rng):
    """A stream with every anomaly mixed in: duplicate and missing
    request records, replies first, untraced and ID-less records,
    unknown, self and cyclic parents, ties on the timestamp."""
    return [
        record(
            rng.choice([ObservationKind.REQUEST, ObservationKind.REPLY]),
            rng.choice(SPAN_IDS),
            rng.choice(PARENTS),
            src=rng.choice(NAMES),
            dst=rng.choice(NAMES),
            t=rng.randint(0, 12) * 0.5,
            request_id=rng.choice(REQUEST_IDS),
            status=rng.choice(STATUSES),
            error=rng.choice(ERRORS),
            fault_applied=rng.choice(FAULTS),
        )
        for _ in range(rng.randint(0, 40))
    ]


@pytest.mark.parametrize("seed", range(240))
def test_random_streams_match_the_reference(seed):
    assert_matches_reference(store_of(random_records(random.Random(seed))))


def random_tree(rng, request_id):
    """A well-formed request: a random call tree, each span a request
    record and (mostly) a reply, so the digests are mostly shared."""
    records = [request("root", None, "user", "a", 0.0, request_id=request_id)]
    parents = ["root"]
    for index in range(rng.randint(0, 12)):
        span_id = f"{request_id}.{index}"
        parent = rng.choice(parents)
        dst = rng.choice(NAMES)
        records.append(request(span_id, parent, "a", dst, index + 1.0, request_id=request_id))
        if rng.random() < 0.9:
            records.append(
                reply(
                    span_id, parent, "a", dst, index + 1.5, request_id=request_id,
                    status=rng.choice([200, 200, 503]), latency=0.5,
                )
            )
        parents.append(span_id)
    records.append(reply("root", None, "user", "a", 99.0, request_id=request_id, latency=99.0))
    return records


@pytest.mark.parametrize("seed", range(40))
def test_random_well_formed_runs_match_the_reference(seed):
    rng = random.Random(1000 + seed)
    records = [
        rec for index in range(rng.randint(1, 8)) for rec in random_tree(rng, f"t{index}")
    ]
    assert_matches_reference(store_of(records))


# -- named stream anomalies ---------------------------------------------------


class TestNamedCases:
    def test_empty_store(self):
        assert assert_matches_reference(EventStore()) == {}

    def test_duplicate_request_records_keep_the_first(self):
        records = [
            request("s0", None, "user", "a", 0.0),
            request("s1", "s0", "a", "b", 0.1),
            request("s1", "s0", "a", "c", 0.2),  # duplicate: ignored
            reply("s1", "s0", "a", "c", 0.3, status=503),
            reply("s0", None, "user", "a", 0.4),
        ]
        digests = assert_matches_reference(store_of(records))
        without = assert_matches_reference(store_of(records[:2] + records[3:]))
        assert digests == without

    def test_reply_before_request_wins_and_the_request_is_ignored(self):
        records = [
            reply("s0", None, "user", "a", 0.0, status=503),
            request("s0", "elsewhere", "x", "y", 0.5),
        ]
        assert_matches_reference(store_of(records))

    def test_reply_only_spans(self):
        records = [
            reply("s0", None, "user", "a", 1.0),
            reply("s1", "s0", "a", "b", 0.5, status=None, error="reset"),
            reply("s1", "s0", "a", "b", 0.7, status=504),  # overwrites again
        ]
        assert_matches_reference(store_of(records))

    def test_a_reply_overwrites_status_error_and_fault(self):
        records = [
            request("s0", None, status=200, error="reset", fault_applied="abort(503)"),
            reply("s0", None, t=1.0, status=503, error=None, fault_applied=None),
        ]
        assert_matches_reference(store_of(records))

    def test_untraced_and_request_less_records(self):
        records = [
            request(None, None, t=0.0),  # untraced: a request with an empty tree
            request("s0", None, t=0.1, request_id=None),  # no request ID: skipped
            reply("s0", None, t=0.2, request_id=None),
            request("s0", None, t=0.3, request_id="r2"),
            request(None, "s0", t=0.4, request_id="r2"),
            reply("s0", None, t=0.5, request_id="r2"),
        ]
        digests = assert_matches_reference(store_of(records))
        assert list(digests) == ["r1", "r2"]

    def test_orphan_self_and_cyclic_parents(self):
        records = [
            request("root", None, "user", "a", 0.0),
            request("orphan", "lost", "a", "b", 0.1),
            request("self", "self", "a", "c", 0.2),
            request("left", "right", "a", "d", 0.3),
            request("right", "left", "a", "e", 0.4),
            request("below", "left", "a", "f", 0.5),
        ]
        assert_matches_reference(store_of(records))

    def test_deep_chain(self):
        records = [request("s0", None, "user", "a", 0.0)] + [
            request(f"s{i}", f"s{i - 1}", "ü", "服务", float(i), fault_applied="delay(1)")
            for i in range(1, 320)
        ]
        records += [reply(f"s{i}", f"s{i - 1}", "ü", "服务", 400.0 + i) for i in range(1, 320)]
        assert_matches_reference(store_of(records))

    def test_non_ascii_names(self):
        records = [request("s0", None, "ü", "服务", 0.0), reply("s0", None, "ü", "服务", 1.0)]
        digests = assert_matches_reference(store_of(records))
        assert digests != assert_matches_reference(store_of(
            [request("s0", None, "u", "服务", 0.0), reply("s0", None, "u", "服务", 1.0)]
        ))

    def test_equal_statuses_of_different_types_stay_different_shapes(self):
        # 1, True and 1.0 are one dict key but three JSON texts; 0.0 and
        # -0.0 are one key but two texts.  All share one store, so one
        # call's memo sees every one of them.
        statuses = [1, True, 1.0, 0.0, -0.0]
        records = [
            request("s0", None, t=float(index), request_id=f"r{index}", status=status)
            for index, status in enumerate(statuses)
        ]
        digests = assert_matches_reference(store_of(records))
        assert len(set(digests.values())) == len(statuses)

    def test_equal_faults_of_different_types_stay_different_shapes(self):
        records = [
            request("s0", None, t=float(index), request_id=f"r{index}", fault_applied=fault)
            for index, fault in enumerate([True, 1, "1"])
        ]
        digests = assert_matches_reference(store_of(records))
        assert len(set(digests.values())) == 3

    def test_the_same_span_id_in_two_requests_is_two_spans(self):
        records = [
            request("s0", None, "user", "a", 0.0, request_id="r1"),
            request("s0", None, "user", "b", 0.1, request_id="r2"),
            reply("s0", None, "user", "b", 0.2, request_id="r2", status=503),
        ]
        digests = assert_matches_reference(store_of(records))
        assert digests["r1"] != digests["r2"]


# -- the cost pin -------------------------------------------------------------


@pytest.fixture(scope="module")
def faulted_store():
    """The store of one faulted seed-11 ``deepfanout`` execution, run
    as the explore executor runs it: its first request is aborted one
    hop in, the other 39 see the fault-free tree."""
    manifest = SEEDED_BUG_SUITE["deepfanout"]
    space = discover_space("deepfanout", seed=11)
    (coordinate,) = [
        coordinate
        for coordinate in space.singles
        if coordinate.key() == "single:user->gateway->catalog@0:abort"
    ]
    scenarios = compile_scenarios(coordinate, manifest)
    run = run_faulted(
        manifest.builder().deploy(seed=11),
        scenarios,
        manifest.checks(),
        load=_manifest_load(manifest),
    )
    return run.deployment.store


def counted(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list of each call's first argument."""
    inner = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_faulted_execution_builds_no_span_and_encodes_each_head_once(
    monkeypatch, faulted_store
):
    expected = reference_digests(faulted_store)
    heads = {
        json.dumps(
            [n.span.src, n.span.dst, n.span.status, bool(n.span.error), n.span.fault_applied],
            separators=(",", ":"),
        )
        for trace in reference_traces(faulted_store).values()
        for root in trace.roots
        for n, _ in root.walk()
    }
    assert len(expected) == 40 and len(set(expected.values())) == 2

    built = [counted(monkeypatch, cls, "__init__") for cls in (Span, TraceNode, Trace)]
    # The module's own json and hashlib names, so nothing else is counted.
    monkeypatch.setattr(trace_module, "json", types.SimpleNamespace(dumps=json.dumps))
    monkeypatch.setattr(trace_module, "hashlib", types.SimpleNamespace(sha256=hashlib.sha256))
    encoded = counted(monkeypatch, trace_module.json, "dumps")
    hashed = counted(monkeypatch, trace_module.hashlib, "sha256")

    assert shape_digests_of(faulted_store) == expected
    assert [len(calls) for calls in built] == [0, 0, 0]
    assert sorted(json.dumps(head, separators=(",", ":")) for head in encoded) == sorted(heads)
    assert len(hashed) == len(set(expected.values()))
    assert len(set(map(bytes, hashed))) == len(hashed)

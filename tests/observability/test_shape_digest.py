"""trace_shape_digest: span-ID/order invariance, shape sensitivity, and the
per-subtree text encoding against the nested-form definition."""

import hashlib
import json
import random

import pytest

from repro.observability import trace_shape_digest
from repro.observability.spans import Span
from repro.observability.trace import Trace, reconstruct_from_records
from tests.observability.test_spans_trace import (
    reply_record,
    request_record,
    two_hop_records,
)


def digest_of(records):
    return trace_shape_digest(reconstruct_from_records("test-1", records))


def fanout_records(ids=("u#1", "a#1", "a#2"), statuses=(200, 200, 200)):
    """user -> a -> {b, c}: a fan-out of two sibling calls."""
    root, left, right = ids
    return [
        request_record(root, None, "user", "a", 0.0),
        request_record(left, root, "a", "b", 0.1),
        request_record(right, root, "a", "c", 0.2),
        reply_record(left, root, "a", "b", 0.3, latency=0.2, status=statuses[1]),
        reply_record(right, root, "a", "c", 0.4, latency=0.2, status=statuses[2]),
        reply_record(root, None, "user", "a", 0.5, latency=0.5, status=statuses[0]),
    ]


class TestInvariance:
    def test_stable_across_span_id_renumbering(self):
        renamed = fanout_records(ids=("x#7", "q#3", "q#9"))
        assert digest_of(fanout_records()) == digest_of(renamed)

    def test_stable_across_record_order(self):
        records = fanout_records()
        assert digest_of(records) == digest_of(list(reversed(records)))

    def test_stable_across_sibling_timing(self):
        base = fanout_records()
        # Same tree, siblings started in the opposite wall-clock order.
        swapped = [
            request_record("u#1", None, "user", "a", 0.0),
            request_record("a#2", "u#1", "a", "c", 0.1),
            request_record("a#1", "u#1", "a", "b", 0.2),
            reply_record("a#2", "u#1", "a", "c", 0.3, latency=0.2),
            reply_record("a#1", "u#1", "a", "b", 0.4, latency=0.2),
            reply_record("u#1", None, "user", "a", 0.5, latency=0.5),
        ]
        assert digest_of(base) == digest_of(swapped)


class TestSensitivity:
    def test_different_topology_different_digest(self):
        assert digest_of(two_hop_records()) != digest_of(fanout_records())

    def test_status_changes_the_digest(self):
        assert digest_of(fanout_records()) != digest_of(
            fanout_records(statuses=(200, 503, 200))
        )

    def test_fault_attribution_changes_the_digest(self):
        faulted = fanout_records()
        faulted[3] = reply_record(
            "a#1", "u#1", "a", "b", 0.3, latency=0.2, status=503,
            fault_applied=True, gremlin_generated=True,
        )
        clean_error = fanout_records(statuses=(200, 503, 200))
        assert digest_of(faulted) != digest_of(clean_error)

    def test_which_sibling_failed_does_not_collapse(self):
        # (b fails) vs (c fails): same multiset of child forms only if
        # the services were identical; here they differ, so digests do.
        left_fails = fanout_records(statuses=(200, 503, 200))
        right_fails = fanout_records(statuses=(200, 200, 503))
        assert digest_of(left_fails) != digest_of(right_fails)


# -- the per-subtree text encoding against the nested-form oracle -------------


def oracle_digest(trace):
    """The digest as first defined: a nested list form per subtree,
    siblings sorted by a fresh ``json.dumps`` of each form at every
    level, the sorted roots hashed as one document."""

    def key(form):
        return json.dumps(form, separators=(",", ":"))

    def form(node):
        span = node.span
        children = sorted((form(child) for child in node.children), key=key)
        return [span.src, span.dst, span.status, bool(span.error), span.fault_applied, children]

    forms = sorted((form(root) for root in trace.roots), key=key)
    payload = json.dumps(forms, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


NAMES = ["a", "b", "ü", "服务", "x\"y", "\\", "é "]
FAULTS = [None, None, "abort(503)", "delay(1.5)+abort(500)", "modify", "ä-fault"]
ERRORS = [None, None, "reset", "timeout", ""]
STATUSES = [None, 200, 200, 503, 404]


def span(index, parent, src="a", dst="b", status=200, error=None, fault=None):
    return Span(
        span_id=f"s{index}", parent_span=parent, src=src, dst=dst,
        src_instance="i", request_id="r", method="GET", uri="/",
        start=float(index), status=status, error=error, fault_applied=fault,
    )


def random_trace(rng):
    """A random call forest: small alphabets so equal siblings and
    equal heads with different subtrees are common."""
    built = []
    for index in range(rng.randint(1, 25)):
        parent = None
        if built and rng.random() < 0.85:
            parent = built[rng.randrange(len(built))].span_id
        built.append(
            span(
                index,
                parent,
                src=rng.choice(NAMES),
                dst=rng.choice(NAMES),
                status=rng.choice(STATUSES),
                error=rng.choice(ERRORS),
                fault=rng.choice(FAULTS),
            )
        )
    return Trace("r", built, [])


class TestAgainstNestedFormOracle:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_forests(self, seed):
        trace = random_trace(random.Random(seed))
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_equal_siblings(self):
        spans = [span(0, None)] + [span(i, "s0", dst="c") for i in range(1, 6)]
        trace = Trace("r", spans, [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_equal_heads_with_different_subtrees_inserted_unsorted(self):
        # Two siblings differ only below their heads; their insertion
        # order is the reverse of their text order.
        spans = [
            span(0, None),
            span(1, "s0", dst="c"),
            span(2, "s0", dst="c"),
            span(3, "s1", dst="z"),
            span(4, "s2", dst="d"),
        ]
        trace = Trace("r", spans, [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_deep_chain(self):
        spans = [span(0, None)] + [
            span(i, f"s{i - 1}", src="ü", dst="服务", fault="delay(1)") for i in range(1, 300)
        ]
        trace = Trace("r", spans, [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_non_ascii_names_are_escaped(self):
        trace = Trace("r", [span(0, None, src="ü", dst="服务")], [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_truthy_and_falsy_errors_and_fault_kinds(self):
        spans = [
            span(0, None, error="reset", status=None),
            span(1, "s0", error="", fault=None),
            span(2, "s0", error="timeout", fault="abort(503)"),
            span(3, None, status=None, fault="modify"),
        ]
        trace = Trace("r", spans, [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

    def test_empty_trace(self):
        trace = Trace("r", [], [])
        assert trace_shape_digest(trace) == oracle_digest(trace)

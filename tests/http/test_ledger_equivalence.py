"""The call ledger's second pass changes nothing anyone can observe.

Three per-hop re-derivations went (docs/INTERNALS.md "Call ledger"):
a header pair's key half is proven once per key and a proven map's
trace headers are copied as proven entries; a service's canary pool is
memoised beside its production addresses; attribution decides whether a
trace failed from its records before building it.  Each is checked here
against what it replaced, which is kept as the oracle:

* ``OldHeaders`` stores pairs with the predicate ``Headers.__setitem__``
  tested before the key half was memoised;
* ``propagate`` against the header-by-header ``get``/set it replaced;
* the attribution pre-test against ``reconstruct_from_records(...).failed``;
* canary routing against the registry as it changes mid-run.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import build_hotelreservation_app, build_socialnetwork_app
from repro.campaign import plan_campaign
from repro.core.gremlin import run_faulted
from repro.http import Headers, HttpRequest, decode, encode, headers as headers_module, wire
from repro.http.headers import REQUEST_ID_HEADER, SPAN_ID_HEADER
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore, ObservationKind, ObservationRecord
from repro.logstore.query import Query
from repro.microservice import Application, PolicySpec, ServiceDefinition, fanout_handler
from repro.observability import attribution
from repro.observability.attribution import attribute_run, attribute_trace
from repro.observability.trace import reconstruct_from_records
from repro.tracing import TRACE_HEADERS, RequestIdGenerator, propagate

from tests.conftest import CallCount

# -- headers: the key half memoised, the value half per set ------------------------


class OldHeaders:
    """The pairs and the proof mark a map held when every set tested its
    whole pair: the predicate kept verbatim as the oracle."""

    def __init__(self):
        self.entries = {}
        self.unproven = False

    def set(self, key, value):
        lowered = key.lower()
        value = str(value)
        self.entries[lowered] = (key, value)
        text = key + value
        if (
            ":" in key
            or " " in key
            or value[:1] == " "
            or value[-1:] == " "
            or not (text.isascii() and text.isprintable())
        ) and lowered != "content-length":
            self.unproven = True

    def delete(self, key):
        del self.entries[key.lower()]


_key = st.one_of(
    st.sampled_from(
        ["X-A", "x-a", "X-B", "Content-Length", "content-length", "CONTENT-length",
         REQUEST_ID_HEADER, REQUEST_ID_HEADER.lower(), SPAN_ID_HEADER.upper()]
    ),
    st.sampled_from(["a:b", "a b", " a", "a ", "a\tb", "\xe9", "a\x7f", "a\r\nb", "", "İ"]),
    st.text(max_size=6),
)
_value = st.one_of(
    st.text(max_size=6),
    st.sampled_from([" v", "v ", " ", "in ner", "\tv", "v\n", "\xe9", "\xa0v", "a\x00b", "999"]),
    st.integers(-5, 5000),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
_op = st.one_of(st.tuples(st.just("set"), _key, _value), st.tuples(st.just("del"), _key))


def assert_same_map(headers, oracle):
    assert headers._entries == oracle.entries
    assert list(headers._entries) == list(oracle.entries)  # order too
    assert headers._unproven == oracle.unproven


def assert_wire_form_is_the_codec(headers):
    message = HttpRequest("POST", "/x", headers.copy(), b"ab")
    try:
        expected = encode(message)
    except Exception as exc:  # noqa: BLE001 - wire_form must raise the same
        with pytest.raises(type(exc)):
            wire.wire_form(message)
        return
    unit = wire.wire_form(message)
    if type(unit) is bytes:
        assert unit == expected
        return
    decoded = decode(expected)
    assert (unit.method, unit.uri, unit.body) == (decoded.method, decoded.uri, decoded.body)
    assert list(unit.headers.items()) == list(decoded.headers.items())


class TestKeyHalfMemo:
    @given(ops=st.lists(_op, max_size=12))
    @example(ops=[("set", "X-A", " v"), ("del", "x-a"), ("set", "x-a", "ok")])
    @example(ops=[("set", "a:b", "v"), ("set", "A:B", "w")])
    @example(ops=[("set", "CONTENT-length", " 9 "), ("set", "Content-Length", "\xe9")])
    @example(ops=[("set", "İ", "v"), ("set", "i̇", "w")])
    @settings(max_examples=400)
    def test_any_set_delete_sequence_stores_what_the_old_predicate_stored(self, ops):
        headers, oracle = Headers(), OldHeaders()
        for op, key, *value in ops:
            if op == "set":
                headers[key] = value[0]
                oracle.set(key, value[0])
            elif key.lower() in oracle.entries:
                del headers[key]
                oracle.delete(key)
            assert_same_map(headers, oracle)
        assert_wire_form_is_the_codec(headers)

    def test_more_distinct_keys_than_the_memo_holds(self):
        keys = [f"X-K{index}" for index in range(3 * headers_module._KEY_PROOFS_MAX)]
        keys[::7] = [f"x k{index}" for index in range(len(keys[::7]))]  # bad ones too
        headers, oracle = Headers(), OldHeaders()
        for round_ in range(2):  # the second pass meets evicted and memoised keys
            for index, key in enumerate(keys):
                value = " v" if index % 11 == round_ else f"v{index}"
                headers[key] = value
                oracle.set(key, value)
            assert_same_map(headers, oracle)
        assert len(headers_module._KEY_PROOFS) <= headers_module._KEY_PROOFS_MAX

    def test_a_str_subclass_key_is_proven_afresh_and_stored_as_given(self):
        class Shouting(str):
            def lower(self):
                return str.upper(self)

        key = Shouting("X-Loud")
        headers = Headers()
        headers["X-Loud"] = "1"  # memoised under the plain str
        headers[key] = "2"
        assert headers._entries == {"x-loud": ("X-Loud", "1"), "X-LOUD": (key, "2")}
        assert next(reversed(headers._entries.values()))[0] is key


class TestHeadersFromHeaders:
    def test_a_headers_argument_is_copied_not_unpacked(self):
        assert Headers(Headers({"A": "1"})).to_dict() == {"A": "1"}
        assert Headers(Headers({"Ab": "1"})).to_dict() == {"Ab": "1"}

    def test_the_copy_keeps_casing_order_and_its_proof(self):
        proven = Headers([("X-B", "2"), ("x-a", "1")])
        copied = Headers(proven)
        assert list(copied.items()) == [("X-B", "2"), ("x-a", "1")]
        assert copied._entries is not proven._entries and not copied._unproven
        copied["X-C"] = "3"
        assert "X-C" not in proven
        unproven = Headers({"X-Edge": " padded"})
        assert Headers(unproven)._unproven


# -- propagate: a proven map's trace entries copied as they stand ------------------


def propagate_by_hand(incoming, outgoing):
    """What ``propagate`` did on every map: ``get`` then set, per header."""
    for header in TRACE_HEADERS:
        value = incoming.headers.get(header)
        if value is not None:
            outgoing.headers[header] = value
    return outgoing


_trace_key = st.sampled_from(
    [*TRACE_HEADERS, *(h.lower() for h in TRACE_HEADERS), *(h.upper() for h in TRACE_HEADERS),
     "X-Other", "x-bad key", "Content-Length"]
)
_trace_value = st.sampled_from(["test-1", "svc-1-0#3", " spaced", "\xe9", "7"])
_pairs = st.lists(st.tuples(_trace_key, _trace_value), max_size=5)


class TestPropagate:
    @given(incoming=_pairs, outgoing=_pairs, sent=st.booleans())
    @example(incoming=[(REQUEST_ID_HEADER.lower(), "test-1")], outgoing=[], sent=False)
    @example(incoming=[(SPAN_ID_HEADER, "svc#1"), ("x-bad key", "7")], outgoing=[], sent=False)
    @example(
        incoming=[(REQUEST_ID_HEADER, " spaced")], outgoing=[(SPAN_ID_HEADER.upper(), "7")], sent=True
    )
    @settings(max_examples=300)
    def test_propagate_is_the_header_by_header_copy(self, incoming, outgoing, sent):
        inbound = HttpRequest("GET", "/in", Headers(incoming))
        if sent:  # what a callee receives: the wire snapshot (or the parsed bytes)
            unit = wire.wire_form(inbound)
            inbound = unit if type(unit) is HttpRequest else decode(unit)
        ours = HttpRequest("GET", "/out", Headers(outgoing))
        theirs = HttpRequest("GET", "/out", Headers(outgoing))
        assert propagate(inbound, ours) is ours
        propagate_by_hand(inbound, theirs)
        assert list(ours.headers._entries.items()) == list(theirs.headers._entries.items())
        assert ours.headers._unproven == theirs.headers._unproven

    def test_the_canonical_casing_is_stored_whatever_the_incoming_casing(self):
        inbound = HttpRequest("GET", "/in", Headers({REQUEST_ID_HEADER.lower(): "test-1",
                                                     SPAN_ID_HEADER.upper(): "svc-0#1"}))
        assert not inbound.headers._unproven
        outgoing = propagate(inbound, HttpRequest("GET", "/out"))
        assert list(outgoing.headers) == [REQUEST_ID_HEADER, SPAN_ID_HEADER]


# -- attribution: a trace is built only when it failed -----------------------------


def _record(kind, span_id, parent, status=None, error=None):
    return ObservationRecord(
        timestamp=0.0, kind=kind, src="a", dst="b", request_id="test-1", status=status,
        error=error, span_id=span_id, parent_span=parent,
    )


def request(span_id, parent, **outcome):
    return _record(ObservationKind.REQUEST, span_id, parent, **outcome)


def reply(span_id, parent, **outcome):
    return _record(ObservationKind.REPLY, span_id, parent, **outcome)


#: Synthetic record sets, each with the verdict ``Trace.failed`` gives.
SYNTHETIC = {
    "ok root": ([request("u", None), reply("u", None, status=200)], False),
    "failed root": ([request("u", None), reply("u", None, status=500)], True),
    "failed child, ok root": (
        [request("u", None), request("c", "u"), reply("c", "u", status=503),
         reply("u", None, status=200)],
        False,
    ),
    "failed orphan, ok root": (
        [request("u", None), reply("u", None, status=200), request("o", "lost"),
         reply("o", "lost", error="reset")],
        True,
    ),
    "orphan lost its reply": (
        [request("u", None), reply("u", None, status=200), request("o", "lost")],
        True,
    ),
    "root lost its reply": (
        [request("u", None), request("c", "u"), reply("c", "u", status=200)],
        True,
    ),
    "reply without request": ([reply("u", None, status=200)], False),
    "reply without request, failed": ([reply("u", None, error="timeout")], True),
    "duplicate request, first wins": (
        [request("u", None, status=200), request("u", None, status=500)],
        False,
    ),
    "duplicate request, first failed": (
        [request("u", None, status=500), request("u", None, status=200)],
        True,
    ),
    "the reply overrides the request": (
        [request("u", None, status=503), reply("u", None, status=200)],
        False,
    ),
    "a later reply overrides an earlier": (
        [request("u", None), reply("u", None, status=200), reply("u", None, status=502)],
        True,
    ),
    "request after its reply is a duplicate": (
        [reply("u", None, status=200), request("u", None, status=500)],
        False,
    ),
    "parent taken from the first record": (
        [reply("c", "u", status=500), request("c", None), request("u", None),
         reply("u", None, status=200)],
        False,
    ),
    "untraced records are skipped": (
        [request(None, None, status=500), request("u", None), reply("u", None, status=200)],
        False,
    ),
    "only untraced records": ([request(None, None, status=500)], False),
    "a span parented on itself": ([request("u", "u", status=500)], False),
    "no status is not ok": ([request("u", None), reply("u", None)], True),
    "4xx is ok": ([request("u", None), reply("u", None, status=404)], False),
}


class TestFailedPreTest:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_synthetic_streams(self, name):
        records, failed = SYNTHETIC[name]
        assert reconstruct_from_records("test-1", records).failed is failed  # the oracle agrees
        assert attribution._trace_failed(records) is failed

    @given(
        records=st.lists(
            st.builds(
                _record,
                kind=st.sampled_from(ObservationKind.ALL),
                span_id=st.sampled_from(["u", "a", "b", None]),
                parent=st.sampled_from([None, "u", "a", "b", "lost"]),
                status=st.sampled_from([None, 200, 404, 500, 503]),
                error=st.sampled_from([None, None, "reset"]),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=400)
    def test_any_stream_decides_as_the_tree_does(self, records):
        expected = reconstruct_from_records("test-1", records).failed
        assert attribution._trace_failed(records) is expected

    def test_only_failed_traces_are_rebuilt(self):
        store = EventStore()
        # test-1 absorbed its fault (skipped unbuilt), test-2 did not.
        for rid, name in (("test-1", "failed child, ok root"),
                          ("test-2", "failed orphan, ok root")):
            for record in SYNTHETIC[name][0]:
                fault = "abort(503)" if record.span_id in ("c", "o") else None
                store.append(dataclasses.replace(record, request_id=rid, fault_applied=fault))
        with CallCount() as calls:
            found = attribute_run(store, [])
        assert calls.calls_of(reconstruct_from_records) == 1
        assert [a.request_id for a in found] == ["test-2"]
        assert attribute_run(store, [], only_failed=False) == [
            *attribute_trace(
                reconstruct_from_records("test-1", store.search(Query(id_pattern="test-1"))), []
            ),
            *found,
        ]


def _reference_attribute_run(store, rules):
    """``attribute_run`` as it was: every faulted trace built, then filtered."""
    found, seen = [], set()
    for record in store.search_iter(Query(with_faults_only=True)):
        rid = record.request_id
        if rid is not None and rid not in seen:
            seen.add(rid)
            trace = reconstruct_from_records(rid, store.search(Query(id_pattern=rid)))
            if trace.failed:
                found.extend(attribute_trace(trace, rules))
    return found


@pytest.mark.parametrize("hardened", [False, True], ids=["naive", "hardened"])
@pytest.mark.parametrize("factory", [build_socialnetwork_app, build_hotelreservation_app],
                         ids=["socialnetwork", "hotelreservation"])
def test_every_faulted_request_of_every_plan_entry(factory, hardened):
    """Seed 11, both large apps, both builds: the pre-test gives the
    tree's verdict on every faulted request, and ``attribute_run`` what
    building every faulted trace gave."""
    plan = plan_campaign(factory, seed=11)
    faulted = failed = 0
    for entry in plan.entries:
        recipe = entry.recipe
        run = run_faulted(
            factory(hardened=hardened).deploy(seed=11),
            recipe.scenarios,
            recipe.checks,
            load=entry.load,
            extra_load=recipe.load,
            settle=max(entry.settle, recipe.settle),
        )
        store = run.deployment.store
        ids = {r.request_id for r in store.search_iter(Query(with_faults_only=True))} - {None}
        for rid in ids:
            records = store.search(Query(id_pattern=rid))
            expected = reconstruct_from_records(rid, records).failed
            assert attribution._trace_failed(records) is expected, (entry.name, rid)
            faulted += 1
            failed += expected
        rules = run.installation.rules
        assert attribute_run(store, rules) == _reference_attribute_run(store, rules), entry.name
    assert faulted > 1000 and 0 < failed < faulted  # both verdicts were exercised


# -- the canary pool: memoised, dropped when the registry changes ------------------


def test_a_canary_registered_mid_run_takes_the_next_test_call():
    app = Application("canary-memo")
    app.add_service(
        ServiceDefinition(
            "ServiceA",
            handler=fanout_handler(["ServiceB"]),
            dependencies={"ServiceB": PolicySpec(timeout=1.0)},
        )
    )
    app.add_service(ServiceDefinition("ServiceB", canary_instances=1))
    deployment = app.deploy(seed=141)
    registry = deployment.registry
    (canary_record,) = [r for r in registry.instances("ServiceB") if r.canary]
    canary = deployment.canaries_of("ServiceB")[0].server
    production = deployment.production_instances_of("ServiceB")[0].server
    source = deployment.add_traffic_source("ServiceA")
    ids = RequestIdGenerator()

    def served_after(requests):
        before = canary.requests_served, production.requests_served
        ClosedLoopLoad(num_requests=requests, ids=ids).run(source)
        return canary.requests_served - before[0], production.requests_served - before[1]

    assert served_after(2) == (2, 0)
    registry.deregister("ServiceB", canary_record.instance_id)
    assert served_after(2) == (0, 2)  # the memo went with the canary
    assert registry.canary_addresses("ServiceB") == []
    registry.register(canary_record)
    assert served_after(3) == (3, 0)  # and came back with it
    pool = registry.canary_addresses("ServiceB")
    pool.append("scribble")
    assert registry.canary_addresses("ServiceB") == [canary_record.address]  # a fresh list

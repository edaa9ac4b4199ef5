"""Tests for observation-log exports: ``log-export`` artifacts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArtifactError
from repro.logstore import EventStore, ObservationRecord, Query, dump_jsonl, dumps, load_jsonl, loads

from tests.conftest import sealed
from tests.logstore.test_record import make_record

HEADER = {"kind": "log-export", "version": 1}


def populated_store():
    store = EventStore()
    store.append(make_record(timestamp=1.0, status=200))
    store.append(
        make_record(
            timestamp=2.0,
            kind="reply",
            status=503,
            latency=0.5,
            injected_delay=0.4,
            fault_applied="delay(0.4)",
            gremlin_generated=True,
        )
    )
    return store


class TestTextRoundTrip:
    def test_dumps_loads_identity(self):
        original = populated_store()
        restored = loads(dumps(original))
        assert restored.all_records() == original.all_records()

    def test_empty_store(self):
        assert dumps(EventStore()) == sealed(HEADER, [])
        assert len(loads(dumps(EventStore()))) == 0
        with pytest.raises(ArtifactError, match="line 1: no final newline"):
            loads("")

    def test_blank_lines_are_refused(self):
        with pytest.raises(ArtifactError, match="line 6: no trailer"):
            loads(dumps(populated_store()) + "\n\n")
        first, second = dumps(populated_store()).splitlines()[1:-1]
        with pytest.raises(ArtifactError, match="line 3: blank line"):
            loads(sealed(HEADER, [first, "", second]))

    def test_malformed_line_fails_loudly(self):
        with pytest.raises(ArtifactError, match="line 1: no final newline"):
            loads("{not json")
        with pytest.raises(ArtifactError, match="line 2: not JSON"):
            loads(sealed(HEADER, ["{not json"]))

    def test_wrong_schema_fails_loudly(self):
        with pytest.raises(ArtifactError, match="line 2: .*unexpected"):
            loads(sealed(HEADER, ['{"unexpected": "fields"}']))

    def test_queries_work_on_restored_store(self):
        restored = loads(dumps(populated_store()))
        assert restored.count(Query(status=503)) == 1
        reply = restored.search(Query(kind="reply"))[0]
        assert reply.actual_latency == pytest.approx(0.1)


_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_timestamps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

_records = st.builds(
    ObservationRecord,
    timestamp=_timestamps,
    kind=st.sampled_from(["request", "reply"]),
    src=_names,
    dst=_names,
    src_instance=_names,
    request_id=st.one_of(st.none(), _names),
    method=st.one_of(st.none(), st.sampled_from(["GET", "POST"])),
    uri=st.one_of(st.none(), st.sampled_from(["/", "/search", "/x?q=1"])),
    status=st.one_of(st.none(), st.integers(min_value=100, max_value=599)),
    latency=st.one_of(st.none(), _timestamps),
    injected_delay=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    fault_applied=st.one_of(st.none(), st.sampled_from(["abort(503)", "delay(3.0)", "modify"])),
    gremlin_generated=st.booleans(),
    error=st.one_of(st.none(), st.sampled_from(["reset", "timeout", "refused", "unreachable"])),
)


class TestRoundTripProperty:
    """Hypothesis: dump -> load reproduces the store byte-identically."""

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(_records, max_size=20), statuses=st.data())
    def test_dump_load_byte_identical(self, records, statuses):
        store = EventStore()
        for record in records:
            store.append(record)
        # Mutate some records after ingestion, the way agents update
        # outcomes in place — exports must reflect the mutated state.
        for index, record in enumerate(records):
            if statuses.draw(st.booleans(), label=f"mutate-{index}"):
                record.status = statuses.draw(
                    st.one_of(st.none(), st.integers(min_value=100, max_value=599)),
                    label=f"status-{index}",
                )
                record.fault_applied = statuses.draw(
                    st.one_of(st.none(), st.just("abort(503)")),
                    label=f"fault-{index}",
                )
        text = dumps(store)
        restored = loads(text)
        assert restored.all_records() == store.all_records()
        # Byte-identical: re-dumping the restored store reproduces the text.
        assert dumps(restored) == text

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(_records, max_size=10))
    def test_queries_agree_after_round_trip(self, records):
        store = EventStore()
        for record in records:
            store.append(record)
        restored = loads(dumps(store))
        for query in (Query(kind="request"), Query(status=503), Query(kind="reply")):
            assert restored.count(query) == store.count(query)


class TestMalformedLines:
    def test_error_names_line_number_and_payload(self):
        good = dumps(populated_store()).splitlines()[1:-1]
        with pytest.raises(ArtifactError) as excinfo:
            loads(sealed(HEADER, good + ["{broken json"]))
        message = str(excinfo.value)
        assert "<text>: line 4: not JSON" in message
        # The underlying JSON decoder's complaint is preserved.
        assert "Expecting" in message

    def test_unknown_field_error_is_loud(self):
        with pytest.raises(ArtifactError, match="line 2: .*nope"):
            loads(sealed(HEADER, ['{"timestamp": 1.0, "kind": "request", "nope": 1}']))


class TestFileRoundTrip:
    def test_dump_and_load_file(self, tmp_path):
        store = populated_store()
        path = tmp_path / "observations.jsonl"
        written = dump_jsonl(store, path)
        assert written == 2
        restored = load_jsonl(path)
        assert restored.all_records() == store.all_records()

    def test_end_to_end_offline_assertions(self, tmp_path):
        """Dump a live deployment's logs and re-run a check offline."""
        from repro.apps import build_twotier
        from repro.core import Disconnect, Gremlin, HasBoundedRetries
        from repro.loadgen import ClosedLoopLoad
        from repro.microservice import PolicySpec

        deployment = build_twotier(
            policy=PolicySpec(timeout=1.0, max_retries=5, retry_backoff_base=0.02)
        ).deploy(seed=151)
        source = deployment.add_traffic_source("ServiceA")
        gremlin = Gremlin(deployment)
        gremlin.inject(Disconnect("ServiceA", "ServiceB"))
        ClosedLoopLoad(num_requests=1).run(source)

        path = tmp_path / "run.jsonl"
        dump_jsonl(deployment.store, path)
        offline_store = load_jsonl(path)
        result = HasBoundedRetries("ServiceA", "ServiceB", 5, window="30s").run(offline_store)
        assert result.passed, result.detail

"""Unit tests for the event store (both evaluation strategies)."""

import copy
import dataclasses
import pickle

import pytest

from repro.logstore import STORE_STRATEGIES, EventStore, ObservationRecord, Query

from tests.logstore.test_record import make_record


@pytest.fixture(params=STORE_STRATEGIES)
def store(request):
    return EventStore(strategy=request.param)


class TestEventStore:
    def test_append_and_len(self, store):
        store.append(make_record())
        assert len(store) == 1

    def test_extend(self, store):
        store.extend(make_record(timestamp=float(i)) for i in range(5))
        assert len(store) == 5

    def test_all_records_sorted(self, store):
        for ts in (3.0, 1.0, 2.0):
            store.append(make_record(timestamp=ts))
        assert [r.timestamp for r in store.all_records()] == [1.0, 2.0, 3.0]

    def test_search_by_pair_uses_index(self, store):
        store.append(make_record(src="A", dst="B", timestamp=1.0))
        store.append(make_record(src="A", dst="C", timestamp=2.0))
        store.append(make_record(src="A", dst="B", timestamp=3.0))
        results = store.search(Query(src="A", dst="B"))
        assert [r.timestamp for r in results] == [1.0, 3.0]

    def test_search_time_range_without_pair(self, store):
        for ts in range(10):
            store.append(make_record(timestamp=float(ts)))
        results = store.search(Query(since=3.0, until=6.0))
        assert [r.timestamp for r in results] == [3.0, 4.0, 5.0, 6.0]

    def test_search_pair_with_out_of_order_ingest(self, store):
        store.append(make_record(timestamp=5.0))
        store.append(make_record(timestamp=1.0))
        results = store.search(Query(src="ServiceA", dst="ServiceB"))
        assert [r.timestamp for r in results] == [1.0, 5.0]

    def test_count(self, store):
        store.append(make_record(status=503))
        store.append(make_record(status=200))
        assert store.count(Query(status=503)) == 1

    def test_clear(self, store):
        store.append(make_record())
        store.clear()
        assert len(store) == 0
        assert store.search(Query()) == []

    def test_mutated_record_visible_in_search(self, store):
        record = make_record()
        store.append(record)
        record.status = 503
        assert store.count(Query(status=503)) == 1

    def test_mutation_after_prior_status_query_still_visible(self, store):
        """The hard case for secondary indexes: the status index is
        consulted, *then* a record's status changes in place — the
        additive update must keep the index a superset of the truth."""
        record = make_record(status=200)
        other = make_record(status=200, timestamp=2.0)
        store.append(record)
        store.append(other)
        assert store.count(Query(status=503)) == 0  # index now warm
        record.status = 503
        assert store.count(Query(status=503)) == 1
        assert store.count(Query(status=200)) == 1  # stale entry filtered out

    def test_fault_mutation_visible_to_faults_only_query(self, store):
        record = make_record()
        store.append(record)
        assert store.count(Query(with_faults_only=True)) == 0
        record.fault_applied = "abort(503)"
        assert store.count(Query(with_faults_only=True)) == 1

    def test_search_iter_is_lazy(self, store):
        for ts in range(10):
            store.append(make_record(timestamp=float(ts)))
        iterator = store.search_iter(Query())
        assert next(iterator).timestamp == 0.0  # no list materialized

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            EventStore(strategy="quantum")


class TestQueryPlanner:
    def test_pair_query_prunes_time_range_in_candidates(self):
        """Regression: with src+dst bound, since/until must narrow the
        candidate set (bisect on the pair slice), not merely be
        post-filtered after walking the whole pair bucket."""
        store = EventStore()
        for ts in range(100):
            store.append(make_record(timestamp=float(ts)))
        window = dict(src="ServiceA", dst="ServiceB", since=10.0, until=19.0)
        plan = store.plan(Query(kind="request", **window))
        assert (plan.driver, plan.candidates, plan.exact) == ("slice", 10, True)
        assert len(store.search(Query(kind="request", **window))) == plan.candidates
        # Without a kind the request and reply slices are merged — still
        # pruned to the pair, never a scan of the time range.
        plan = store.plan(Query(**window))
        assert (plan.driver, plan.candidates, plan.exact) == ("merge", 10, True)

    @pytest.mark.parametrize("bound", [dict(src="ServiceA"), dict(dst="ServiceB")])
    def test_one_sided_scope_is_an_exact_slice(self, bound):
        store = EventStore()
        for index in range(30):
            store.append(make_record(timestamp=float(index), src="ServiceA" if index % 3 else "X"))
        query = Query(kind="request", since=3.0, **bound)
        plan = store.plan(query)
        assert plan.driver == "slice" and plan.exact
        assert plan.candidates == len(store.search(query)) == store.count(query)

    def test_most_selective_index_wins(self):
        """Mutable-field constraints are a residual filter over the
        narrowest identity slice; an exact request ID drives only when
        its bucket is shorter than that slice."""
        store = EventStore()
        for index in range(50):
            store.append(
                make_record(
                    timestamp=float(index),
                    kind="request" if index % 2 else "reply",
                    status=503 if index == 7 else 200,
                    request_id="test-7" if index == 7 else "test-1",
                )
            )
        query = Query(kind="request", src="ServiceA", status=503)
        plan = store.plan(query)
        assert (plan.driver, plan.candidates, plan.exact) == ("slice", 25, False)
        assert [r.timestamp for r in store.search(query)] == [7.0]
        plan = store.plan(Query(kind="request", src="ServiceA", id_pattern="test-7"))
        assert (plan.driver, plan.candidates, plan.exact) == ("rid", 1, False)
        plan = store.plan(Query(kind="request", src="ServiceA", since=40.0, id_pattern="test-1"))
        assert (plan.driver, plan.candidates) == ("slice", 5)

    def test_unbound_query_scans_time_range(self):
        store = EventStore()
        for ts in range(20):
            store.append(make_record(timestamp=float(ts)))
        plan = store.plan(Query(since=5.0, until=9.0))
        assert (plan.driver, plan.candidates, plan.exact) == ("time", 5, True)
        plan = store.plan(Query(kind="reply", since=5.0, until=9.0))
        assert (plan.driver, plan.candidates, plan.exact) == ("time", 5, False)

    def test_linear_strategy_always_scans(self):
        store = EventStore(strategy="linear")
        for ts in range(20):
            store.append(make_record(timestamp=float(ts)))
        plan = store.plan(Query(src="ServiceA", dst="ServiceB"))
        assert (plan.driver, plan.candidates, plan.exact) == ("scan", 20, False)

    def test_empty_bucket_yields_empty_plan(self):
        store = EventStore()
        store.append(make_record())
        before = repr(store)
        for query in (
            Query(src="Nobody", dst="Nowhere"),
            Query(kind="request", src="Nobody"),
            Query(id_pattern="no-such-id"),
        ):
            assert store.plan(query).candidates == 0
            assert store.search(query) == []
        assert repr(store) == before  # a miss creates no bucket

    def test_plan_agrees_with_evaluation(self):
        """search, search_iter, count and plan share one planner."""
        store = EventStore()
        TestStrategyEquivalence._populate(store)
        for query in TestStrategyEquivalence.QUERIES:
            plan = store.plan(query)
            results = store.search(query)
            assert list(store.search_iter(query)) == results
            assert store.count(query) == len(results) <= plan.candidates
            if plan.exact:
                assert plan.candidates == len(results)


class TestEqualTimestamps:
    """Where timestamps tie, ingest order is the store order — also
    across the two per-kind slices a kind-less query merges."""

    @pytest.mark.parametrize("query", [Query(src="A"), Query(dst="B"), Query(src="A", dst="B")])
    def test_merge_keeps_ingest_order_within_an_instant(self, store, query):
        batch = [
            make_record(timestamp=ts, kind=kind, src="A", dst="B", uri=f"/{ts}/{n}")
            for ts in (2.0, 1.0, 2.0)
            for n, kind in enumerate(("reply", "request", "request", "reply"))
        ]
        store.extend(batch)
        expected = sorted(batch, key=lambda record: record.timestamp)  # stable
        assert [r.uri for r in store.search(query)] == [r.uri for r in expected]
        assert [r.uri for r in store.search(query.replace(since=2.0))] == [
            r.uri for r in expected[4:]
        ]


class TestFastPath:
    """Checker-shaped scopes are answered by slicing alone."""

    SCOPES = [
        Query(kind="request", src="A", dst="B"),
        Query(kind="reply", dst="B", id_pattern="*"),
        Query(kind="request", src="A", since=100.0, until=900.0),
    ]

    @pytest.mark.parametrize("scope_index", range(len(SCOPES)))
    def test_scope_never_invokes_the_predicate(self, scope_index, monkeypatch):
        store = EventStore()
        store.extend(
            make_record(timestamp=float(ts), src="A", dst="B", kind=kind)
            for ts in range(1000)
            for kind in ("request", "reply")
        )

        def requested(query):
            raise AssertionError(f"predicate requested for {query}")

        monkeypatch.setattr(Query, "predicate", property(requested))
        scope = self.SCOPES[scope_index]
        results = store.search(scope)
        assert len(results) == store.count(scope) == len(list(store.search_iter(scope))) > 0
        with pytest.raises(AssertionError):  # the guard does see a residual filter
            store.count(scope.replace(status=200))

    def test_search_returns_a_fresh_list(self, store):
        store.extend(make_record(timestamp=float(ts)) for ts in range(5))
        query = Query(kind="request", src="ServiceA", dst="ServiceB")
        first = store.search(query)
        snapshot = list(first)
        first.pop()
        first.append(None)
        assert store.search(query) == snapshot
        held = store.search(query)
        store.append(make_record(timestamp=9.0))
        assert held == snapshot
        assert len(store.search(query)) == 6


class TestRecordsStayPlain:
    """Storing a record must not attach store state to it."""

    def test_stored_record_has_only_dataclass_fields(self, store):
        store.extend(make_record(timestamp=float(ts)) for ts in range(200))
        record = store.all_records()[17]
        assert set(vars(record)) == {f.name for f in dataclasses.fields(ObservationRecord)}
        assert pickle.dumps(record) == pickle.dumps(make_record(timestamp=17.0))
        assert copy.deepcopy(record) == record

    def test_repr_and_exports_name_no_deleted_internals(self, store):
        import repro.logstore as logstore

        store.append(make_record())
        assert repr(store).startswith(f"<EventStore strategy={store.strategy} records=1")
        assert all(hasattr(logstore, name) for name in logstore.__all__)
        assert "PostingList" not in logstore.__all__


class TestStrategyEquivalence:
    """Acceptance: indexed search/count must match the linear scan
    exactly (same records, same order) across representative queries."""

    QUERIES = [
        Query(),
        Query(kind="request"),
        Query(src="A", dst="B"),
        Query(src="A"),
        Query(dst="C"),
        Query(status=503),
        Query(with_faults_only=True),
        Query(kind="reply", src="A", dst="B", since=2.0, until=8.0),
        Query(id_pattern="test-*", status=200),
        Query(since=3.5),
        Query(until=4.5),
    ]

    @staticmethod
    def _populate(store):
        for index in range(40):
            record = ObservationRecord(
                timestamp=float(index % 10) + index * 0.01,
                kind="request" if index % 2 else "reply",
                src="A" if index % 3 else "X",
                dst="B" if index % 4 else "C",
                request_id=f"test-{index}" if index % 5 else None,
                status=[None, 200, 503][index % 3],
                fault_applied="abort(503)" if index % 7 == 0 else None,
            )
            store.append(record)
        # In-place outcome updates, as the agent performs them.
        for record in store.all_records()[::6]:
            record.status = 500

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_search_and_count_identical(self, query_index):
        indexed = EventStore(strategy="indexed")
        linear = EventStore(strategy="linear")
        self._populate(indexed)
        self._populate(linear)
        query = self.QUERIES[query_index]
        indexed_results = indexed.search(query)
        linear_results = linear.search(query)
        assert indexed_results == linear_results
        assert [id(r) for r in indexed.search(query)] == [
            id(r) for r in indexed.search(query)
        ]  # stable across repeated evaluation
        assert indexed.count(query) == len(linear_results)

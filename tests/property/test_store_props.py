"""Property-based tests for event-store query invariants."""

from hypothesis import given, settings, strategies as st

from repro.logstore import EventStore, ObservationRecord, Query

_times = st.one_of(
    # A few repeated instants, so equal timestamps (where only ingest
    # order separates records) are the common case, not a fluke.
    st.sampled_from([0.0, 1.0, 2.0, 500.0]),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
)
_kinds = st.sampled_from(["request", "reply"])
_services = st.sampled_from(["A", "B", "C"])
_ids = st.one_of(st.none(), st.sampled_from(["test-1", "test-2", "user-1"]))
_statuses = st.one_of(st.none(), st.sampled_from([200, 404, 503]))
_faults = st.one_of(st.none(), st.just("abort(503)"))


@st.composite
def _queries(draw):
    """Every query shape: kind x src x dst x window x id glob/regex/exact
    x status x faults_only."""
    since = draw(st.one_of(st.none(), _times))
    until = draw(st.one_of(st.none(), _times))
    if since is not None and until is not None and since > until:
        since, until = until, since
    return Query(
        kind=draw(st.one_of(st.none(), _kinds)),
        src=draw(st.one_of(st.none(), _services)),
        dst=draw(st.one_of(st.none(), _services)),
        id_pattern=draw(
            st.sampled_from([None, "*", "test-*", "re:.*-1", "test-1", "user-1", "absent"])
        ),
        since=since,
        until=until,
        status=draw(_statuses),
        with_faults_only=draw(st.booleans()),
    )


@st.composite
def records(draw):
    return ObservationRecord(
        timestamp=draw(_times),
        kind=draw(_kinds),
        src=draw(_services),
        dst=draw(_services),
        request_id=draw(_ids),
        status=draw(_statuses),
        fault_applied=draw(_faults),
    )


def _lists(store: EventStore) -> dict:
    """Every list the store keeps, as record identities and timestamps."""
    buckets = {"primary": store._primary}
    buckets.update((("slice",) + key, bucket) for key, bucket in store._slices.items())
    buckets.update((("rid", key), bucket) for key, bucket in store._rid_ix.items())
    return {
        name: ([id(record) for record in bucket.records], bucket.timestamps)
        for name, bucket in buckets.items()
    }


class TestStoreInvariants:
    @given(batch=st.lists(records(), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_search_results_always_time_sorted(self, batch):
        store = EventStore()
        store.extend(batch)
        results = store.search(Query())
        timestamps = [record.timestamp for record in results]
        assert timestamps == sorted(timestamps)
        assert len(results) == len(batch)

    @given(batch=st.lists(records(), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_pair_index_agrees_with_linear_filter(self, batch):
        store = EventStore()
        store.extend(batch)
        query = Query(src="A", dst="B")
        indexed = store.search(query)
        linear = [record for record in store.all_records() if query.matches(record)]
        assert indexed == linear

    @given(batch=st.lists(records(), max_size=60),
           since=st.floats(min_value=0, max_value=1000, allow_nan=False),
           width=st.floats(min_value=0, max_value=500, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_window_query_is_subset_filter(self, batch, since, width):
        store = EventStore()
        store.extend(batch)
        query = Query(since=since, until=since + width)
        results = store.search(query)
        assert all(since <= record.timestamp <= since + width for record in results)
        expected = sum(1 for record in batch if since <= record.timestamp <= since + width)
        assert len(results) == expected

    @given(batch=st.lists(records(), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_query_partition_by_kind(self, batch):
        store = EventStore()
        store.extend(batch)
        total = store.count(Query(kind="request")) + store.count(Query(kind="reply"))
        assert total == len(batch)

    # Batches large enough that records collide on service pair *and*
    # instant (the other tests here cover empty and tiny stores).
    @given(batch=st.lists(records(), min_size=20, max_size=60), query=_queries())
    @settings(max_examples=300, deadline=None)
    def test_indexed_equals_linear_for_any_query(self, batch, query):
        """Acceptance invariant: the planner's index-driven evaluation
        is byte-identical to the linear full scan for every query."""
        indexed = EventStore(strategy="indexed")
        linear = EventStore(strategy="linear")
        indexed.extend(batch)
        linear.extend(batch)
        expected = [id(record) for record in linear.search(query)]
        assert [id(record) for record in indexed.search(query)] == expected
        assert [id(record) for record in indexed.search_iter(query)] == expected
        assert indexed.count(query) == linear.count(query) == len(expected)
        plan = indexed.plan(query)
        assert plan.candidates == len(expected) if plan.exact else plan.candidates >= len(expected)
        # The dependents lookup reads identity slices; linear scans.
        src = query.src or "A"
        assert indexed.dependents(src, query.since, query.until) == linear.dependents(
            src, query.since, query.until
        )

    @given(
        batch=st.lists(records(), min_size=1, max_size=40),
        new_statuses=st.lists(st.sampled_from([200, 404, 503, None]), max_size=10),
        query=_queries(),
    )
    @settings(max_examples=100, deadline=None)
    def test_equivalence_survives_in_place_mutation(self, batch, new_statuses, query):
        """In-place outcome updates (the agent's document-update
        analogue) must keep the secondary indexes truthful."""
        indexed = EventStore(strategy="indexed")
        indexed.extend(batch)
        # Warm every index the query will consult, then mutate.
        indexed.search(query)
        for offset, status in enumerate(new_statuses):
            record = batch[offset % len(batch)]
            record.status = status
            record.fault_applied = "abort(503)" if status == 503 else None
        linear = EventStore(strategy="linear")
        linear.extend(batch)
        expected = [id(record) for record in linear.search(query)]
        assert [id(record) for record in indexed.search(query)] == expected
        assert indexed.count(query) == len(expected)

    @given(batch=st.lists(records(), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_out_of_order_ingest_keeps_pair_index_consistent(self, batch):
        """Late records are inserted in place into the primary array and
        every index, so pair queries agree with a fresh store built from
        the already-sorted records."""
        store = EventStore()
        store.extend(batch)
        resorted = store.all_records()  # forces the re-sort + remap
        fresh = EventStore()
        fresh.extend(resorted)
        for src in ("A", "B", "C"):
            for dst in ("A", "B", "C"):
                query = Query(src=src, dst=dst)
                assert store.search(query) == fresh.search(query)

    @given(batch=st.lists(records(), max_size=60), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_shuffled_ingest_equals_a_stable_sort(self, batch, data):
        """Any ingest order, one append at a time or one extend, leaves
        every list of the store — the primary array, each identity
        slice and each request-ID bucket — as a store fed the records
        already stably sorted by timestamp holds it: ties in ingest
        order."""
        order = data.draw(st.permutations(batch))
        for strategy in ("indexed", "linear"):
            expected = EventStore(strategy=strategy)
            for record in sorted(order, key=lambda record: record.timestamp):
                expected.append(record)
            one_by_one = EventStore(strategy=strategy)
            for record in order:
                one_by_one.append(record)
            batched = EventStore(strategy=strategy)
            split = len(order) // 2
            batched.extend(order[:split])
            batched.extend(order[split:])
            for store in (one_by_one, batched):
                assert _lists(store) == _lists(expected)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), records()),
                st.tuples(st.just("search"), _queries()),
                st.tuples(st.just("mutate"), st.tuples(st.integers(0, 39), _statuses, _faults)),
                st.tuples(st.just("clear"), st.none()),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_indexes_survive_interleaved_append_search_clear(self, ops):
        """Arbitrary interleavings of ingest (in any time order),
        queries (which trigger lazy re-sorts), in-place outcome updates
        and clears never desync indexed from linear."""
        indexed = EventStore(strategy="indexed")
        linear = EventStore(strategy="linear")
        ingested = []
        for op, payload in ops:
            if op == "append":
                # Distinct objects per store, so neither store can lean
                # on state the other left on a shared record.
                pair = tuple(ObservationRecord(**payload.to_dict()) for _ in range(2))
                ingested.append(pair)
                indexed.append(pair[0])
                linear.append(pair[1])
            elif op == "mutate":
                position, status, fault = payload
                for record in ingested[position % len(ingested)] if ingested else ():
                    record.status, record.fault_applied = status, fault
            elif op == "search":
                assert indexed.search(payload) == linear.search(payload)
                assert indexed.count(payload) == linear.count(payload)
                window = (payload.since, payload.until)
                assert indexed.dependents("A", *window) == linear.dependents("A", *window)
            else:
                indexed.clear()
                linear.clear()
                ingested.clear()
        assert indexed.search(Query()) == linear.search(Query())

"""The centralized event store (Elasticsearch stand-in).

Agents ship observation records here (via the
:class:`~repro.logstore.pipeline.LogPipeline`); the Assertion Checker
queries them back, filtered and time-sorted, exactly as the paper's
``GetRequests``/``GetReplies`` do against Elasticsearch.

Like Elasticsearch, the store answers scoped queries from secondary
indexes instead of scanning the whole trace.  Next to the primary
time-sorted record array it keeps one
:class:`~repro.logstore.index.RecordSlice` per identity key —
``(kind, src, dst)``, ``(kind, src, *)``, ``(kind, *, dst)`` — and one
per request ID.  Every scope the checker issues binds ``kind`` and a
service, so its answer is a contiguous time range of one slice: two
bisects and a list slice, no per-record work.  Constraints on fields
that can still change (``status``, ``with_faults_only``) and request-ID
globs are a *residual* filter over the narrowest slice, reading each
record's current value.

``strategy="linear"`` keeps the full-scan evaluation as the test
oracle (mirroring ``make_matcher`` in :mod:`repro.agent.matcher`);
both strategies return byte-identical results.

Ingest keeps every list in time order as it goes: a record that lands
with an older timestamp than the newest stored one (a shipping delay
overtaken by later traffic) is inserted with ``bisect_right`` into the
primary array and each of its slices, after every record of the same
instant — the order a stable sort by timestamp would give, so ties keep
their ingest order and no read ever re-sorts.

Records are mutable (the agent updates ``status``/``fault_applied`` in
place once a call's outcome is known — the in-process analogue of an
Elasticsearch document update).  Only identity fields (``kind``,
``src``, ``dst``, ``timestamp``, ``request_id``), which are fixed once
a record is stored, are indexed, so such an update needs no hook and
no index can go stale.

:meth:`EventStore.request_spans` answers an aggregate without
returning records: for each callee of one caller, the count of requests
in a window and their first and last timestamps, from the edge slices'
timestamp lists alone (``HasBulkhead``'s request rates).

:meth:`EventStore.follow` reads a scope as it grows: given the cursor
of its last read, it returns only the records that arrived since, or
the whole scope again when a late record landed before the cursor or
the store was cleared.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import operator
import typing as _t

from repro.logstore.index import RecordSlice, merge_slices
from repro.logstore.query import Query, compile_id_pattern, exact_id_pattern
from repro.logstore.record import ObservationKind, ObservationRecord

__all__ = [
    "Cursor",
    "EventStore",
    "QueryPlan",
    "RequestSpan",
    "STORE_STRATEGIES",
]

#: Valid values for ``EventStore(strategy=...)``.
STORE_STRATEGIES = ("indexed", "linear")

#: Stands in for an identity key or request ID no record carries.
_EMPTY = RecordSlice()

#: Where a read of a scope stopped (:meth:`EventStore.follow` returns
#: one and takes it back): the slice read, how many of its records, and
#: the last of those.
Cursor = _t.Tuple[RecordSlice, int, _t.Optional[ObservationRecord]]

#: One callee of an :meth:`EventStore.request_spans` read: its name, how
#: many requests the caller sent it, and the first and last of their
#: timestamps (``None`` when there are none).
RequestSpan = _t.Tuple[str, int, _t.Optional[float], _t.Optional[float]]


@dataclasses.dataclass(frozen=True)
class QueryPlan:
    """How the store intends to evaluate one query (introspection aid).

    ``driver`` names what supplies candidates: ``"slice"`` (one
    identity slice: ``kind`` plus ``src`` and/or ``dst``), ``"merge"``
    (``src``/``dst`` without ``kind``: the request and reply slices
    interleaved), ``"rid"`` (exact request-ID lookup: exact when the
    ID is all the query binds besides time), ``"time"`` (no
    service bound: the primary array's time range), or ``"scan"`` (the
    linear strategy).  ``candidates`` counts the records in the
    candidate range — the cost of the query.  ``exact`` means the range
    *is* the answer: no record is examined, so
    ``candidates == len(result)``.
    """

    strategy: str
    driver: str
    candidates: int
    total: int
    exact: bool = False

    def __str__(self) -> str:
        verb = "returned" if self.exact else "examined"
        return (
            f"{self.strategy}/{self.driver}: {self.candidates} of"
            f" {self.total} records {verb}"
        )


class EventStore:
    """Append-only, queryable store of observation records."""

    def __init__(self, strategy: str = "indexed") -> None:
        if strategy not in STORE_STRATEGIES:
            raise ValueError(
                f"unknown store strategy {strategy!r}; expected one of {STORE_STRATEGIES}"
            )
        self._strategy = strategy
        self._primary = RecordSlice()
        # Secondary indexes (maintained only under the indexed strategy).
        #: (kind, src, dst) / (kind, src, None) / (kind, None, dst) -> slice.
        self._slices: _t.DefaultDict[tuple, RecordSlice] = collections.defaultdict(RecordSlice)
        #: Ingest memo: (kind, src, dst) -> the three slices of
        #: ``_slices`` a record with that identity lands in.
        self._slices_of: dict[tuple, tuple[RecordSlice, RecordSlice, RecordSlice]] = {}
        #: src -> (dst, (request, src, dst) slice) for every edge ``src``
        #: was seen calling: the dependents :meth:`dependents` reads.
        self._callees: _t.DefaultDict[str, list[tuple[str, RecordSlice]]] = (
            collections.defaultdict(list)
        )
        #: Exact request-ID index: trace reconstruction pulls one
        #: request's records without scanning the run.
        self._rid_ix: _t.DefaultDict[str, RecordSlice] = collections.defaultdict(RecordSlice)

    @property
    def strategy(self) -> str:
        """The evaluation strategy this store was built with."""
        return self._strategy

    # -- ingest ----------------------------------------------------------------

    def append(self, record: ObservationRecord) -> None:
        """Ingest one record (agents go through the pipeline instead)."""
        primary = self._primary
        ts = record.timestamp
        timestamps = primary.timestamps
        late = ts < timestamps[-1] if timestamps else False
        primary.records.append(record)
        timestamps.append(ts)
        if self._strategy == "indexed":
            self._index_record(record, ts)
        if late:
            self._sink(record, ts)

    def extend(self, records: _t.Iterable[ObservationRecord]) -> None:
        """Ingest many records (a replayed or shuffled log).

        Equivalent to repeated :meth:`append`.  The batch is stably
        sorted by timestamp first, so a shuffled log costs one sort, and
        only its records older than the store's newest are inserted.
        """
        for record in sorted(records, key=operator.attrgetter("timestamp")):
            self.append(record)

    def __len__(self) -> int:
        return len(self._primary)

    def clear(self) -> None:
        """Drop everything — used between chained recipe steps when the
        operator wants a clean observation window."""
        self._primary = RecordSlice()
        self._slices.clear()
        self._slices_of.clear()
        self._callees.clear()
        self._rid_ix.clear()

    # -- queries -----------------------------------------------------------------

    def all_records(self) -> list[ObservationRecord]:
        """Every record, sorted by timestamp."""
        return list(self._primary.records)

    def search(self, query: Query) -> list[ObservationRecord]:
        """Records matching ``query``, sorted by timestamp (a fresh list)."""
        _, source, exact = self._plan(query)
        lo, hi = source.window(query.since, query.until)
        candidates = source.records[lo:hi]
        if exact:
            return candidates
        predicate = query.predicate
        return [record for record in candidates if predicate(record)]

    def search_iter(self, query: Query) -> _t.Iterator[ObservationRecord]:
        """Lazily yield records matching ``query`` in timestamp order.

        The candidate range is filtered on the fly; no intermediate
        list is materialized, so early-exiting consumers pay only for
        the candidates they pull.
        """
        _, source, exact = self._plan(query)
        lo, hi = source.window(query.since, query.until)
        records = source.records
        predicate = None if exact else query.predicate
        for position in range(lo, hi):
            record = records[position]
            if predicate is None or predicate(record):
                yield record

    def count(self, query: Query) -> int:
        """Number of records matching ``query``."""
        _, source, exact = self._plan(query)
        lo, hi = source.window(query.since, query.until)
        if exact:
            return hi - lo
        predicate = query.predicate
        return sum(1 for record in source.records[lo:hi] if predicate(record))

    def dependents(
        self, src: str, since: _t.Optional[float] = None, until: _t.Optional[float] = None
    ) -> list[str]:
        """The services ``src`` sent a request to inside the window, sorted.

        Indexed, they are the callees of :meth:`request_spans`: each
        edge ``src`` was ever seen calling is one ``(request, src, dst)``
        slice, and a dependent is a key whose window holds a record, two
        bisects per edge and no per-record work.
        """
        if self._strategy == "linear":
            scope = Query(kind=ObservationKind.REQUEST, src=src, since=since, until=until)
            return sorted({record.dst for record in self.search(scope)})
        return [span[0] for span in self.request_spans(src, since, until)]

    def request_spans(
        self,
        src: str,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        dsts: _t.Optional[_t.Sequence[str]] = None,
        exclude: _t.Optional[str] = None,
        id_pattern: _t.Optional[str] = "*",
    ) -> list[RequestSpan]:
        """The requests ``src`` sent each callee inside the window, as a
        :data:`RequestSpan` per callee: what a request rate needs.

        ``dsts`` names the callees, in its order, whether called or not;
        without it they are :meth:`dependents`.  ``exclude`` is left out
        either way.  A request-ID glob other than ``*`` is a residual
        filter: only the matching requests are counted.  Indexed, each
        callee is its ``(request, src, dst)`` slice, whose window is two
        bisects; with no glob no record is read and no list is copied.
        """
        if self._strategy == "linear":
            # The oracle: the dependents, then one GetRequests per callee.
            spans = []
            for dst in self.dependents(src, since, until) if dsts is None else dsts:
                if dst == exclude:
                    continue
                found = self.search(
                    Query(ObservationKind.REQUEST, src, dst, id_pattern, since, until)
                )
                if found:
                    spans.append((dst, len(found), found[0].timestamp, found[-1].timestamp))
                else:
                    spans.append((dst, 0, None, None))
            return spans
        if dsts is None:
            # One entry per callee, so the sort never compares two slices.
            edges = sorted(self._callees.get(src, ()))
        else:
            slices = self._slices
            edges = [(dst, slices.get((ObservationKind.REQUEST, src, dst), _EMPTY)) for dst in dsts]
        glob = id_pattern is not None and id_pattern != "*"
        regex = None
        spans = []
        for dst, edge in edges:
            if dst == exclude:
                continue
            timestamps = edge.timestamps
            lo = 0 if since is None else bisect.bisect_left(timestamps, since)
            hi = len(timestamps) if until is None else bisect.bisect_right(timestamps, until, lo)
            if lo == hi and dsts is None:
                continue  # not called in the window: not a dependent
            if glob:
                if regex is None:
                    regex = compile_id_pattern(id_pattern)
                timestamps = [
                    record.timestamp
                    for record in edge.records[lo:hi]
                    if record.request_id is not None and regex.match(record.request_id)
                ]
                lo, hi = 0, len(timestamps)
            if lo < hi:
                spans.append((dst, hi - lo, timestamps[lo], timestamps[hi - 1]))
            else:
                spans.append((dst, 0, None, None))
        return spans

    def follow(
        self, query: Query, cursor: _t.Optional[Cursor] = None
    ) -> tuple[bool, list[ObservationRecord], Cursor]:
        """Read ``query``'s scope as it grows: ``(fresh, records, cursor)``.

        ``records`` are the matching records that arrived after
        ``cursor``, in scope order, and the returned cursor marks the end
        of this read.  ``fresh`` is True when they are the whole scope
        instead (what :meth:`search` returns): no cursor was given, it no
        longer holds (a late record landed before it, or the store was
        cleared), or the plan's candidates are not one stored slice.  A
        scope filtered on an outcome field (``status``,
        ``with_faults_only``) is always read afresh, since an outcome
        written after a read can change what matched.
        """
        _, source, exact = self._plan(query)
        records, timestamps = source.records, source.timestamps
        fresh, start = True, 0
        if cursor is not None and query.status is None and not query.with_faults_only:
            read, position, last = cursor
            # Records only ever enter a slice, so the ones before the
            # cursor stay put unless a late record is inserted among
            # them, which moves the last one read off its index.
            if read is source and (not position or records[position - 1] is last):
                fresh, start = False, position
        since, until = query.since, query.until
        lo = start if since is None else bisect.bisect_left(timestamps, since, start)
        hi = len(timestamps) if until is None else bisect.bisect_right(timestamps, until, lo)
        found = records[lo:hi]
        if not exact:
            predicate = query.predicate
            found = [record for record in found if predicate(record)]
        return fresh, found, (source, hi, records[hi - 1] if hi else None)

    def plan(self, query: Query) -> QueryPlan:
        """Explain how ``query`` would be evaluated (for tests/tuning)."""
        driver, source, exact = self._plan(query)
        lo, hi = source.window(query.since, query.until)
        return QueryPlan(self._strategy, driver, hi - lo, len(self._primary), exact)

    # -- planner -----------------------------------------------------------------

    def _plan(self, query: Query) -> tuple[str, RecordSlice, bool]:
        """The one planner behind search/search_iter/count/plan/follow.

        Returns the driver's name, the slice that supplies its
        candidates (the time bounds bisect a ``[lo, hi)`` range out of
        it), and whether that range is exactly the answer (else the
        caller filters it with ``query.predicate``, which re-reads every
        field).
        """
        kind, src, dst = query.kind, query.src, query.dst
        exact = False
        if self._strategy == "linear":
            driver, source = "scan", self._primary
        else:
            if src is None and dst is None:
                driver, source, exact = "time", self._primary, kind is None
            elif kind is not None:
                driver, source, exact = "slice", self._slices.get((kind, src, dst), _EMPTY), True
            else:
                driver, exact = "merge", True
                source = merge_slices(
                    self._slices.get((ObservationKind.REQUEST, src, dst), _EMPTY),
                    self._slices.get((ObservationKind.REPLY, src, dst), _EMPTY),
                    self._primary,
                )
            residual = query.status is not None or query.with_faults_only
            if residual:
                exact = False
            if query.id_pattern is not None and query.id_pattern != "*":
                exact = False
                exact_id = exact_id_pattern(query.id_pattern)
                if exact_id is not None:
                    by_rid = self._rid_ix.get(exact_id, _EMPTY)
                    if kind is None and src is None and dst is None and not residual:
                        # The request's slice holds exactly its records.
                        return "rid", by_rid, True
                    if len(by_rid) < len(source):
                        driver, source = "rid", by_rid
        return driver, source, exact

    # -- index maintenance -------------------------------------------------------

    def _index_record(self, record: ObservationRecord, ts: float) -> None:
        # An identity repeats thousands of times in a run: its three
        # slices are looked up in ``_slices`` once and remembered.
        key = (record.kind, record.src, record.dst)
        landing = self._slices_of.get(key)
        if landing is None:
            kind, src, dst = key
            slices = self._slices
            landing = self._slices_of[key] = (
                slices[key], slices[kind, src, None], slices[kind, None, dst]
            )
            if kind == ObservationKind.REQUEST:
                self._callees[src].append((dst, landing[0]))
        for bucket in landing:
            bucket.records.append(record)
            bucket.timestamps.append(ts)
        if record.request_id is not None:
            bucket = self._rid_ix[record.request_id]
            bucket.records.append(record)
            bucket.timestamps.append(ts)

    def _sink(self, record: ObservationRecord, ts: float) -> None:
        """Move a late ``record`` from the end of every list it was just
        appended to back to where a stable sort by timestamp puts it:
        after each record of the same instant."""
        buckets = [self._primary]
        if self._strategy == "indexed":
            buckets += self._slices_of[record.kind, record.src, record.dst]
            if record.request_id is not None:
                buckets.append(self._rid_ix[record.request_id])
        for bucket in buckets:
            records, timestamps = bucket.records, bucket.timestamps
            position = bisect.bisect_right(timestamps, ts, 0, len(timestamps) - 1)
            del records[-1], timestamps[-1]
            records.insert(position, record)
            timestamps.insert(position, ts)

    def __repr__(self) -> str:
        return (
            f"<EventStore strategy={self._strategy} records={len(self._primary)}"
            f" slices={len(self._slices)}>"
        )


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

Records are mutable (the agent updates ``status``/``fault_applied`` in
place once a call's outcome is known — the in-process analogue of an
Elasticsearch document update).  Only identity fields (``kind``,
``src``, ``dst``, ``timestamp``, ``request_id``), which are fixed once
a record is stored, are indexed, so such an update needs no hook and
no index can go stale.
"""

from __future__ import annotations

import collections
import dataclasses
import operator
import typing as _t

from repro.logstore.index import RecordSlice, merge_slices
from repro.logstore.query import Query, exact_id_pattern
from repro.logstore.record import ObservationKind, ObservationRecord

__all__ = ["EventStore", "QueryPlan", "STORE_STRATEGIES"]

#: Valid values for ``EventStore(strategy=...)``.
STORE_STRATEGIES = ("indexed", "linear")

#: Stands in for an identity key or request ID no record carries.
_EMPTY = RecordSlice()


@dataclasses.dataclass(frozen=True)
class QueryPlan:
    """How the store intends to evaluate one query (introspection aid).

    ``driver`` names what supplies candidates: ``"slice"`` (one
    identity slice: ``kind`` plus ``src`` and/or ``dst``), ``"merge"``
    (``src``/``dst`` without ``kind``: the request and reply slices
    interleaved), ``"rid"`` (exact request-ID lookup), ``"time"`` (no
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
        self._sorted = True
        # Secondary indexes (maintained only under the indexed strategy).
        #: (kind, src, dst) / (kind, src, None) / (kind, None, dst) -> slice.
        self._slices: _t.DefaultDict[tuple, RecordSlice] = collections.defaultdict(RecordSlice)
        #: Ingest memo: (kind, src, dst) -> the three slices of
        #: ``_slices`` a record with that identity lands in.
        self._slices_of: dict[tuple, tuple[RecordSlice, RecordSlice, RecordSlice]] = {}
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
        if primary.timestamps and ts < primary.timestamps[-1]:
            self._sorted = False
        primary.records.append(record)
        primary.timestamps.append(ts)
        if self._strategy == "indexed":
            self._index_record(record, ts)

    def extend(self, records: _t.Iterable[ObservationRecord]) -> None:
        """Ingest many records (the pipeline's batched flush path).

        Equivalent to repeated :meth:`append`, with the attribute
        lookups hoisted out of the loop.
        """
        primary = self._primary
        records_append = primary.records.append
        ts_append = primary.timestamps.append
        index_record = self._index_record if self._strategy == "indexed" else None
        last_ts = primary.timestamps[-1] if primary.timestamps else float("-inf")
        for record in records:
            ts = record.timestamp
            if ts < last_ts:
                self._sorted = False
            else:
                last_ts = ts
            records_append(record)
            ts_append(ts)
            if index_record is not None:
                index_record(record, ts)

    def __len__(self) -> int:
        return len(self._primary)

    def clear(self) -> None:
        """Drop everything — used between chained recipe steps when the
        operator wants a clean observation window."""
        self._primary = RecordSlice()
        self._sorted = True
        self._slices.clear()
        self._slices_of.clear()
        self._rid_ix.clear()

    # -- queries -----------------------------------------------------------------

    def all_records(self) -> list[ObservationRecord]:
        """Every record, sorted by timestamp."""
        self._ensure_sorted()
        return list(self._primary.records)

    def search(self, query: Query) -> list[ObservationRecord]:
        """Records matching ``query``, sorted by timestamp (a fresh list)."""
        _, records, lo, hi, exact = self._plan(query)
        candidates = records[lo:hi]
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
        _, records, lo, hi, exact = self._plan(query)
        predicate = None if exact else query.predicate
        for position in range(lo, hi):
            record = records[position]
            if predicate is None or predicate(record):
                yield record

    def count(self, query: Query) -> int:
        """Number of records matching ``query``."""
        _, records, lo, hi, exact = self._plan(query)
        if exact:
            return hi - lo
        predicate = query.predicate
        return sum(1 for record in records[lo:hi] if predicate(record))

    def plan(self, query: Query) -> QueryPlan:
        """Explain how ``query`` would be evaluated (for tests/tuning)."""
        driver, _, lo, hi, exact = self._plan(query)
        return QueryPlan(self._strategy, driver, hi - lo, len(self._primary), exact)

    # -- planner -----------------------------------------------------------------

    def _plan(
        self, query: Query
    ) -> tuple[str, list[ObservationRecord], int, int, bool]:
        """The one planner behind search/search_iter/count/plan.

        Returns the driver's name, its record list, the ``[lo, hi)``
        candidate range the time bounds bisect out of it, and whether
        that range is exactly the answer (else the caller filters it
        with ``query.predicate``, which re-reads every field).
        """
        self._ensure_sorted()
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
            if query.status is not None or query.with_faults_only:
                exact = False
            if query.id_pattern is not None and query.id_pattern != "*":
                exact = False
                exact_id = exact_id_pattern(query.id_pattern)
                if exact_id is not None:
                    by_rid = self._rid_ix.get(exact_id, _EMPTY)
                    if len(by_rid) < len(source):
                        driver, source = "rid", by_rid
        lo, hi = source.window(query.since, query.until)
        return driver, source.records, lo, hi, exact

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
        for bucket in landing:
            bucket.records.append(record)
            bucket.timestamps.append(ts)
        if record.request_id is not None:
            bucket = self._rid_ix[record.request_id]
            bucket.records.append(record)
            bucket.timestamps.append(ts)

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        ordered = sorted(self._primary.records, key=operator.attrgetter("timestamp"))
        self.clear()
        self.extend(ordered)

    def __repr__(self) -> str:
        return (
            f"<EventStore strategy={self._strategy} records={len(self._primary)}"
            f" slices={len(self._slices)}>"
        )

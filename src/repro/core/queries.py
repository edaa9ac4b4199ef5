"""Assertion-checker queries (top block of paper Table 3).

``GetRequests`` and ``GetReplies`` fetch filtered, time-sorted
observation lists ("RList") from the event store; everything else in
the assertion layer operates on those lists.  The functions mirror the
paper's signatures::

    GetRequests(Src, Dst, ID)   GetReplies(Src, Dst, ID)

with optional time-window bounds added so chained recipes can scope a
query to one failure phase.
"""

from __future__ import annotations

import typing as _t

from repro.logstore.query import Query
from repro.logstore.record import ObservationKind, ObservationRecord
from repro.logstore.store import Cursor, EventStore, RequestSpan, request_spans_by_search

__all__ = [
    "RList",
    "StoreLike",
    "QueryCache",
    "dependents_scope",
    "get_requests",
    "get_replies",
    "observed_status",
    "observed_statuses",
    "observed_latency",
]

#: An RList is a time-sorted list of observation records.  RLists are
#: read-only by convention: assertion code never mutates one, which is
#: what lets :class:`QueryCache` hand the same list to every consumer.
RList = _t.List[ObservationRecord]


class QueryCache:
    """Memoizing read-through façade over an event store.

    The paper's checker issues one Elasticsearch query per assertion
    step; a recipe's checks typically scope to the same few
    ``(src, dst, kind)`` slices, so the checker used to re-fetch the
    same records once per step.  Wrapping the store in a ``QueryCache``
    for the duration of one evaluation batch fetches each distinct
    :class:`~repro.logstore.query.Query` exactly once (``Query`` is a
    frozen dataclass, hence hashable) and evaluates every step against
    the shared slice.

    A cache is only valid while the underlying store is quiescent:
    create one after the log pipeline has drained, run the checks, and
    drop it.  ``hits``/``misses`` expose the sharing for reports and
    tests — ``misses`` is the number of distinct scopes actually
    fetched.
    """

    def __init__(self, store: EventStore) -> None:
        self.store = store
        self._results: dict[Query, RList] = {}
        self._dependents: dict[Query, list[str]] = {}
        self.hits = 0
        self.misses = 0

    def search(self, query: Query) -> RList:
        """Matching records, fetched once per distinct query."""
        cached = self._results.get(query)
        if cached is None:
            self._account(query)
            cached = self._results[query] = self.store.search(query)
        else:
            self.hits += 1
        return cached

    def count(self, query: Query) -> int:
        """Number of matching records (cached alongside search)."""
        return len(self.search(query))

    def follow(
        self, query: Query, cursor: _t.Optional[Cursor] = None
    ) -> tuple[bool, RList, _t.Optional[Cursor]]:
        """:meth:`EventStore.follow` over a quiescent store: every read is
        the whole scope, fetched once per distinct query as by
        :meth:`search` (written out: a check reads through this)."""
        cached = self._results.get(query)
        if cached is None:
            self._account(query)
            cached = self._results[query] = self.store.search(query)
        else:
            self.hits += 1
        return True, cached, None

    def dependents(
        self, src: str, since: _t.Optional[float] = None, until: _t.Optional[float] = None
    ) -> list[str]:
        """:meth:`EventStore.dependents`, accounted as a fetch of the
        scope it reads: the ``src`` requests in the window."""
        scope = dependents_scope(src, since, until)
        found = self._dependents.get(scope)
        if found is None:
            self._account(scope)
            found = self._dependents[scope] = self.store.dependents(src, since, until)
        else:
            self.hits += 1
        return found

    def request_spans(
        self,
        src: str,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        dsts: _t.Optional[_t.Sequence[str]] = None,
        exclude: _t.Optional[str] = None,
        id_pattern: _t.Optional[str] = "*",
    ) -> list[RequestSpan]:
        """:meth:`EventStore.request_spans` through this cache's own
        :meth:`dependents` and :meth:`search`, so it fetches and counts
        the scopes a discovery and one ``GetRequests`` per callee do."""
        return request_spans_by_search(self, src, since, until, dsts, exclude, id_pattern)

    def _account(self, scope: Query) -> None:
        """A scope counts as fetched once: the first read of it, by
        either method, is the miss."""
        if scope in self._results or scope in self._dependents:
            self.hits += 1
        else:
            self.misses += 1

    def __repr__(self) -> str:
        return f"<QueryCache scopes={self.misses} hits={self.hits}>"


#: Anything the assertion layer can query: a raw store or a cache.
StoreLike = _t.Union[EventStore, QueryCache]


def dependents_scope(
    src: str, since: _t.Optional[float] = None, until: _t.Optional[float] = None
) -> Query:
    """The requests ``src`` sent inside the window: the scope whose
    destinations are ``src``'s dependents."""
    return Query(kind=ObservationKind.REQUEST, src=src, since=since, until=until)


def get_requests(
    store: StoreLike,
    src: str,
    dst: str,
    id_pattern: str = "*",
    since: _t.Optional[float] = None,
    until: _t.Optional[float] = None,
) -> RList:
    """All observed requests from ``src`` to ``dst``, sorted by time.

    ``id_pattern`` is a glob over the request ID (``'test-*'``), as in
    the paper's rule examples.
    """
    return store.search(
        Query(
            kind=ObservationKind.REQUEST,
            src=src,
            dst=dst,
            id_pattern=id_pattern,
            since=since,
            until=until,
        )
    )


def get_replies(
    store: StoreLike,
    src: str,
    dst: str,
    id_pattern: str = "*",
    since: _t.Optional[float] = None,
    until: _t.Optional[float] = None,
) -> RList:
    """All observed replies for ``src``'s calls to ``dst``.

    Reply records live at the *caller's* agent (the sidecar handles the
    caller's outbound traffic), so ``src``/``dst`` have the same
    orientation as in :func:`get_requests`.
    """
    return store.search(
        Query(
            kind=ObservationKind.REPLY,
            src=src,
            dst=dst,
            id_pattern=id_pattern,
            since=since,
            until=until,
        )
    )


def observed_status(record: ObservationRecord, with_rule: bool) -> _t.Optional[int]:
    """The status a record "returned", under either accounting view.

    ``with_rule=True`` is the caller-observed view: statuses
    synthesized by Gremlin's Abort count.  ``with_rule=False`` is the
    callee-actual view: a Gremlin-synthesized outcome is treated as no
    reply at all (status ``None``), exposing the callee's untampered
    behaviour.
    """
    if record.status is None:
        return None
    if not with_rule and _gremlin_synthesized(record):
        return None
    return record.status


def observed_statuses(rlist: RList, with_rule: bool) -> list[_t.Optional[int]]:
    """:func:`observed_status` of every record of ``rlist``, in order.

    One comprehension over the scope, so an assertion can count and
    find statuses with ``list.count``/``list.index`` instead of one
    Python call per record.
    """
    if with_rule:
        return [record.status for record in rlist]
    # _gremlin_synthesized, inlined: a call per record is what this avoids.
    return [
        None
        if record.gremlin_generated
        or (record.fault_applied is not None and "abort" in record.fault_applied)
        else record.status
        for record in rlist
    ]


def observed_latency(record: ObservationRecord, with_rule: bool) -> _t.Optional[float]:
    """A reply record's latency under either accounting view.

    ``with_rule=True``: as the caller experienced it, Gremlin delays
    included.  ``with_rule=False``: the callee's actual service time —
    injected delay subtracted, and Gremlin-synthesized replies excluded
    entirely (``None``).
    """
    if record.latency is None:
        return None
    if with_rule:
        return record.latency
    if _gremlin_synthesized(record):
        return None
    return record.actual_latency


def _gremlin_synthesized(record: ObservationRecord) -> bool:
    if record.gremlin_generated:
        return True
    # Request records carry the outcome in-place; an abort fault on the
    # request means the recorded status came from Gremlin, not the callee.
    return record.fault_applied is not None and "abort" in record.fault_applied

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
from repro.logstore.store import EventStore

__all__ = [
    "RList",
    "dependents_scope",
    "get_requests",
    "get_replies",
    "observed_status",
    "observed_statuses",
    "observed_latency",
]

#: An RList is a time-sorted list of observation records.
RList = _t.List[ObservationRecord]


def QueryCache(store: EventStore) -> EventStore:
    """``store`` itself.  ``bench/layers.py``, which changes only with
    the benchmark, still imports this name and runs its check phase
    through what it returns; the benchmark change that re-points that
    phase deletes it."""
    return store


def dependents_scope(
    src: str, since: _t.Optional[float] = None, until: _t.Optional[float] = None
) -> Query:
    """The requests ``src`` sent inside the window: the scope whose
    destinations are ``src``'s dependents."""
    return Query(kind=ObservationKind.REQUEST, src=src, since=since, until=until)


def get_requests(
    store: EventStore,
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
    store: EventStore,
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

"""Secondary-index structure for the event store.

The paper's Assertion Checker answers Table 3 queries against
Elasticsearch, which keeps an inverted index per field so a scoped
query never scans the whole trace.  This module provides the
in-process analogue: :class:`RecordSlice` — the records sharing one
*identity* key, in store order, next to a parallel list of their
timestamps — so a time window over a slice is two stdlib bisects and
one list slice, with no per-record work.

Slices are keyed on identity fields only (``kind``, ``src``, ``dst``,
``request_id``), which never change once a record is stored.  Mutable
outcome fields (``status``, ``fault_applied``) are not indexed at all:
the store filters them by reading each candidate's current value, so
an in-place update needs no notification and can never leave an index
stale.
"""

from __future__ import annotations

import bisect
import typing as _t

from repro.logstore.record import ObservationRecord

__all__ = ["RecordSlice", "merge_slices"]


class RecordSlice:
    """Records in store (time, then ingest) order, plus their timestamps.

    ``timestamps[i] == records[i].timestamp``; the parallel list exists
    so :func:`bisect.bisect_left` needs no ``key=`` (Python 3.9).  The
    store appends to both lists directly on its ingest path.
    """

    __slots__ = ("records", "timestamps")

    def __init__(self) -> None:
        self.records: list[ObservationRecord] = []
        self.timestamps: list[float] = []

    def window(
        self, since: _t.Optional[float], until: _t.Optional[float]
    ) -> tuple[int, int]:
        """``[lo, hi)`` of the records with ``since <= timestamp <= until``."""
        lo = 0 if since is None else bisect.bisect_left(self.timestamps, since)
        hi = (
            len(self.timestamps)
            if until is None
            else bisect.bisect_right(self.timestamps, until)
        )
        return lo, hi

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<RecordSlice n={len(self.records)}>"


def merge_slices(a: RecordSlice, b: RecordSlice, primary: RecordSlice) -> RecordSlice:
    """Union of two disjoint slices of ``primary``, in ``primary``'s order.

    Timestamps order the merge except where both sides hold records at
    the same instant; there only ``primary`` knows the ingest order, so
    the tied run is read back from it.
    """
    out = RecordSlice()
    records, timestamps = out.records, out.timestamps
    ra, ta, rb, tb = a.records, a.timestamps, b.records, b.timestamps
    i = j = 0
    while i < len(ra) and j < len(rb):
        ts = ta[i]
        if ts < tb[j]:
            records.append(ra[i])
            timestamps.append(ts)
            i += 1
        elif tb[j] < ts:
            records.append(rb[j])
            timestamps.append(tb[j])
            j += 1
        else:
            i_end, j_end = bisect.bisect_right(ta, ts, i), bisect.bisect_right(tb, ts, j)
            tied = {id(record) for record in ra[i:i_end] + rb[j:j_end]}
            lo, hi = primary.window(ts, ts)
            records += [r for r in primary.records[lo:hi] if id(r) in tied]
            timestamps += [ts] * len(tied)
            i, j = i_end, j_end
    records += ra[i:] + rb[j:]
    timestamps += ta[i:] + tb[j:]
    return out

"""Observation logs as ``log-export`` artifacts (:mod:`repro.artifact`).

Real Gremlin deployments keep their observation logs in Elasticsearch,
where they outlive the test run and feed later analysis.  This module
gives the in-process store the same durability: dump an
:class:`~repro.logstore.store.EventStore`, one record per line, and
load it back to re-run assertions offline or diff two runs.
"""

from __future__ import annotations

import typing as _t

from repro import artifact
from repro.logstore.record import ObservationRecord
from repro.logstore.store import EventStore

__all__ = ["dump_jsonl", "load_jsonl", "dumps", "loads"]


def _decode(records: _t.List[dict], source: str) -> EventStore:
    store = EventStore()
    for record in artifact.decode(source, records, lambda doc: ObservationRecord(**doc)):
        store.append(record)
    return store


def dumps(store: EventStore) -> str:
    """Serialize every record to artifact text (one record per line)."""
    return artifact.dumps("log-export", (record.to_dict() for record in store.all_records()))


def loads(text: str) -> EventStore:
    """Rebuild a store from artifact text."""
    return _decode(artifact.loads(text, "log-export"), "<text>")


def dump_jsonl(store: EventStore, path: _t.Union[str, "_t.Any"]) -> int:
    """Write the store to ``path`` atomically; returns the number of records."""
    artifact.write_atomic(path, dumps(store))
    return len(store)


def load_jsonl(path: _t.Union[str, "_t.Any"]) -> EventStore:
    """Read a store back from ``path``."""
    return _decode(artifact.read(path, "log-export"), str(path))

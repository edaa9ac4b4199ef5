"""Centralized observation log: record schema, store, query DSL, pipeline.

Plays the role of the paper's logstash + Elasticsearch stack: Gremlin
agents ship observation records here and the Assertion Checker queries
them back.
"""

from repro.logstore.export import dump_jsonl, dumps, load_jsonl, loads
from repro.logstore.pipeline import LogPipeline
from repro.logstore.query import Query, compile_id_pattern
from repro.logstore.record import ObservationKind, ObservationRecord
from repro.logstore.store import STORE_STRATEGIES, EventStore, QueryPlan

__all__ = [
    "EventStore",
    "LogPipeline",
    "ObservationKind",
    "ObservationRecord",
    "Query",
    "QueryPlan",
    "STORE_STRATEGIES",
    "compile_id_pattern",
    "dump_jsonl",
    "dumps",
    "load_jsonl",
    "loads",
]

"""Centralized observation log: record schema, store, query DSL, pipeline.

Plays the role of the paper's logstash + Elasticsearch stack: Gremlin
agents ship observation records here and the Assertion Checker queries
them back.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "export": ["dump_jsonl", "dumps", "load_jsonl", "loads"],
        "pipeline": ["LogPipeline"],
        "query": ["Query", "compile_id_pattern"],
        "record": ["ObservationKind", "ObservationRecord"],
        "store": ["EventStore", "QueryPlan", "STORE_STRATEGIES"],
    },
)

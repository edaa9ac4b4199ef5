"""Differential fuzzing of the whole Gremlin stack.

The fuzzer generates random logical topologies, failure recipes, and
workloads from a master seed (:mod:`~repro.fuzz.generator`), predicts
the expected outcome straight from the rule semantics with a reference
oracle (:mod:`~repro.fuzz.oracle`), executes each case on the real
deploy/inject/load/check stack, and diffs the two
(:mod:`~repro.fuzz.differential`) — plus metamorphic checks that need
no oracle at all.  Failing cases shrink to minimal JSON repro
artifacts (:mod:`~repro.fuzz.shrink`, :mod:`~repro.fuzz.harness`) that
replay bit-for-bit from their embedded seed.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "differential": ["CaseReport", "Execution", "execute_case", "run_case"],
        "generator": ["FuzzGenerator"],
        "harness": [
            "FuzzReport",
            "ReplayResult",
            "load_artifact",
            "replay_artifact",
            "run_fuzz",
            "write_artifact",
        ],
        "oracle": ["OracleError", "PredictedRecord", "Prediction", "predict"],
        "shrink": ["ShrinkResult", "shrink"],
        "spec": [
            "CHECK_KINDS",
            "EdgeCountCheck",
            "EdgeStatusCheck",
            "FuzzCase",
            "SOURCE_NAME",
            "TopologySpec",
            "WorkloadSpec",
            "build_application",
            "build_check",
            "build_scenario",
            "check_to_spec",
            "scenario_to_spec",
        ],
    },
)

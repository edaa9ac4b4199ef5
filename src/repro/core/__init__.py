"""The Gremlin control plane (the paper's primary contribution).

Recipe Translator, Failure Orchestrator, Assertion Checker (queries,
base assertions, Combine, pattern checks), the scenario library, the
declarative Recipe object, and the :class:`Gremlin` facade tying it to
a deployment.  :mod:`repro.core.autogen` implements the paper's
future-work sketch of automatic recipe generation.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "assertions": [
            "AtLeastRequests",
            "AtMostRequests",
            "BaseAssertion",
            "CheckStatus",
            "Combine",
            "CombineResult",
            "NoRequestsFor",
            "StepOutcome",
            "combine",
            "num_requests",
            "reply_latency",
            "request_rate",
        ],
        "autogen": ["EdgeAnnotation", "generate_recipes"],
        "chaos": ["ChaosEvent", "ChaosMonkey"],
        "gremlin": ["Gremlin"],
        "orchestrator": ["FailureOrchestrator", "InstallationReport"],
        "patterns": [
            "CheckFailures",
            "CheckResult",
            "HasBoundedRetries",
            "HasBulkhead",
            "HasCircuitBreaker",
            "HasTimeouts",
            "PatternCheck",
        ],
        "queries": [
            "QueryCache",
            "StoreLike",
            "get_replies",
            "get_requests",
            "observed_latency",
            "observed_status",
        ],
        "recipe": ["Recipe", "RecipeResult"],
        "scenarios": [
            "AbortCalls",
            "Crash",
            "Degrade",
            "DelayCalls",
            "Disconnect",
            "FailureScenario",
            "FakeSuccess",
            "GrayFailure",
            "Hang",
            "Misconfiguration",
            "ModifyReplies",
            "NetworkPartition",
            "NoOpControl",
            "Overload",
            "ResourceExhaustion",
            "RetryStorm",
        ],
        "translator": ["RecipeTranslator"],
    },
)

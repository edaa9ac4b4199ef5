"""High-level failure scenarios (paper Section 5, "Example recipes").

A :class:`FailureScenario` describes an outage in operator vocabulary
— *overload this service*, *crash that one*, *partition these groups*
— and decomposes into primitive :class:`~repro.agent.rules.FaultRule`
objects against the logical application graph, exactly the role of the
paper's Recipe Translator.

Every scenario takes a ``pattern`` confining injection to matching
request IDs (default ``'test-*'``), so production flows in the same
deployment pass untouched.

Each kind is a dataclass whose fields are its parameters, in
constructor order; :data:`SCENARIO_KINDS` maps every kind name to its
class.  The fuzz spec codec and the fuzzer's draw test
(:attr:`FailureScenario.draws`) read a scenario's parameters from those
fields, so adding a kind is one dataclass plus one table entry.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.agent.rules import FaultRule, TCP_RESET, abort, delay, modify
from repro.errors import RecipeError
from repro.microservice.graph import ApplicationGraph
from repro.util import parse_duration

__all__ = [
    "FailureScenario",
    "AbortCalls",
    "DelayCalls",
    "ModifyReplies",
    "Disconnect",
    "Crash",
    "Hang",
    "Overload",
    "Degrade",
    "NetworkPartition",
    "FakeSuccess",
    "RetryStorm",
    "GrayFailure",
    "Misconfiguration",
    "ResourceExhaustion",
    "NoOpControl",
    "SCENARIO_KINDS",
]


class FailureScenario:
    """Base class: a named outage decomposable into fault rules."""

    #: Human-readable scenario kind, set by subclasses.
    kind = "scenario"

    #: Fields holding a per-message draw probability, named by each
    #: kind next to its ``decompose``.
    draw_fields: _t.ClassVar[tuple[str, ...]] = ()

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        """Translate into primitive rules using the application graph."""
        raise NotImplementedError

    @property
    def draws(self) -> bool:
        """True when a rule can take a fractional probability draw.

        Probability 0 and 1 keep execution deterministic (p=1 draws
        nothing; p=0 draws but never applies).
        """
        return any(0.0 < getattr(self, name) < 1.0 for name in self.draw_fields)

    def describe(self) -> str:
        """One-line description for recipe reports."""
        return f"{self.kind}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same scenario type, same parameters.

        Lets a recipe that round-tripped through the fuzzer's JSON
        repro artifact compare equal to the original.
        """
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            (key, repr(value)) for key, value in self.__dict__.items()
        ))))


_scenario = dataclasses.dataclass(eq=False, repr=False)


@_scenario
class AbortCalls(FailureScenario):
    """Primitive passthrough: Abort on one caller/callee edge."""

    kind = "abort"

    src: str
    dst: str
    error: int = 503
    pattern: str = "test-*"
    on: str = "request"
    probability: float = 1.0
    max_matches: _t.Optional[int] = None
    skip_matches: int = 0

    draw_fields = ("probability",)

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        graph.validate_services([self.src, self.dst])
        return [
            abort(
                self.src,
                self.dst,
                error=self.error,
                pattern=self.pattern,
                on=self.on,
                probability=self.probability,
                max_matches=self.max_matches,
                skip_matches=self.skip_matches,
            )
        ]

    def describe(self) -> str:
        return f"abort({self.src}->{self.dst}, error={self.error})"


@_scenario
class DelayCalls(FailureScenario):
    """Primitive passthrough: Delay on one caller/callee edge."""

    kind = "delay"

    src: str
    dst: str
    interval: _t.Union[str, float]
    pattern: str = "test-*"
    on: str = "request"
    probability: float = 1.0
    max_matches: _t.Optional[int] = None
    skip_matches: int = 0

    def __post_init__(self) -> None:
        self.interval = parse_duration(self.interval)

    draw_fields = ("probability",)

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        graph.validate_services([self.src, self.dst])
        return [
            delay(
                self.src,
                self.dst,
                interval=self.interval,
                pattern=self.pattern,
                on=self.on,
                probability=self.probability,
                max_matches=self.max_matches,
                skip_matches=self.skip_matches,
            )
        ]

    def describe(self) -> str:
        return f"delay({self.src}->{self.dst}, {self.interval:g}s)"


@_scenario
class ModifyReplies(FailureScenario):
    """Primitive passthrough: Modify on responses of one edge."""

    kind = "modify"

    src: str
    dst: str
    pattern: _t.Union[str, bytes]
    replace_bytes: _t.Union[str, bytes]
    id_pattern: _t.Optional[str] = None

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        graph.validate_services([self.src, self.dst])
        return [
            modify(
                self.src,
                self.dst,
                pattern=self.pattern,
                replace_bytes=self.replace_bytes,
                id_pattern=self.id_pattern,
            )
        ]

    def describe(self) -> str:
        return f"modify({self.src}->{self.dst})"


@_scenario
class Disconnect(FailureScenario):
    """Paper Section 5's ``Disconnect``: one edge answers an error.

    "Returns a HTTP error code when Service1 sends a request to
    Service2" — an Abort with ``Probability=1`` on test traffic.
    """

    kind = "disconnect"

    service1: str
    service2: str
    error: int = 503
    pattern: str = "test-*"

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        graph.validate_services([self.service1, self.service2])
        return [
            abort(self.service1, self.service2, error=self.error, pattern=self.pattern)
        ]

    def describe(self) -> str:
        return f"disconnect({self.service1} -x-> {self.service2})"


@_scenario
class _ServiceScenario(FailureScenario):
    """A fault on one service, installed on every dependent's edge to it.

    Subclasses give the rules for one dependent; :meth:`decompose`
    emits them for each dependent in graph order.
    """

    service: str

    #: The :class:`RecipeError` text when the service has no dependents.
    no_dependents = "service has no dependents"

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        graph.validate_services([self.service])
        dependents = graph.dependents(self.service)
        if not dependents:
            raise RecipeError(
                f"{type(self).__name__}({self.service!r}): {self.no_dependents}"
            )
        return [rule for dependent in dependents for rule in self.rules_from(dependent)]

    def rules_from(self, dependent: str) -> list[FaultRule]:
        """The rules on one ``dependent -> service`` edge."""
        raise NotImplementedError


@_scenario
class Crash(_ServiceScenario):
    """Paper Section 5's ``Crash``: abrupt fail-stop of a service.

    Aborts requests from *all dependents* with ``Error=-1``: "terminate
    the connection at the TCP level, and return no application error
    codes ... emulating an abrupt crash."  ``probability < 1`` gives
    the paper's *transient crashes*.
    """

    kind = "crash"

    pattern: str = "test-*"
    probability: float = 1.0

    no_dependents = "service has no dependents to observe the crash"
    draw_fields = ("probability",)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            abort(
                dependent,
                self.service,
                error=TCP_RESET,
                pattern=self.pattern,
                probability=self.probability,
            )
        ]

    def describe(self) -> str:
        return f"crash({self.service})"


@_scenario
class Hang(_ServiceScenario):
    """Paper Section 5's ``Hang``: the service stops answering.

    "Software hangs are simulated using long delays (e.g., 1 hour)" on
    requests from every dependent.
    """

    kind = "hang"

    interval: _t.Union[str, float] = "1h"
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        self.interval = parse_duration(self.interval)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [delay(dependent, self.service, interval=self.interval, pattern=self.pattern)]

    def describe(self) -> str:
        return f"hang({self.service}, {self.interval:g}s)"


@_scenario
class Overload(_ServiceScenario):
    """Paper Section 5's ``Overload``: mixed aborts and delays.

    "Gremlin delays 75% of requests between Service1 and its
    neighboring services by 100 milliseconds and aborts 25% of requests
    with an error code."

    Decomposition note: our agents apply the *first* matching rule, so
    the 25%/75% split is expressed as an Abort with probability
    ``abort_fraction`` followed by a Delay with probability 1.0 — every
    non-aborted request is delayed, giving exactly the paper's disjoint
    25/75 partition of the stream.
    """

    kind = "overload"

    abort_fraction: float = 0.25
    interval: _t.Union[str, float] = "100ms"
    error: int = 503
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        if not 0.0 <= self.abort_fraction <= 1.0:
            raise RecipeError(f"abort_fraction must be in [0, 1], got {self.abort_fraction}")
        self.interval = parse_duration(self.interval)

    draw_fields = ("abort_fraction",)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        rules: list[FaultRule] = []
        if self.abort_fraction > 0:
            rules.append(
                abort(
                    dependent,
                    self.service,
                    error=self.error,
                    pattern=self.pattern,
                    probability=self.abort_fraction,
                )
            )
        if self.abort_fraction < 1.0:
            rules.append(
                delay(
                    dependent,
                    self.service,
                    interval=self.interval,
                    pattern=self.pattern,
                    probability=1.0,
                )
            )
        return rules

    def describe(self) -> str:
        return (
            f"overload({self.service}, abort={self.abort_fraction:.0%},"
            f" delay={self.interval:g}s)"
        )


@_scenario
class Degrade(_ServiceScenario):
    """Pure slowdown of a service seen by all dependents.

    Models the Spotify 2013 incident class ("degradation of a core
    internal service"): no errors, just latency.
    """

    kind = "degrade"

    interval: _t.Union[str, float] = "1s"
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        self.interval = parse_duration(self.interval)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [delay(dependent, self.service, interval=self.interval, pattern=self.pattern)]

    def describe(self) -> str:
        return f"degrade({self.service}, {self.interval:g}s)"


@_scenario
class NetworkPartition(FailureScenario):
    """Paper Section 5: partition along a cut of the application graph.

    "A network partition is implemented using a series of Abort
    operations with a TCP-level reset along the cut of an application
    graph."  Rules are installed for every edge crossing the cut, in
    whichever direction the edge points.
    """

    kind = "partition"

    group_a: _t.Iterable[str]
    group_b: _t.Iterable[str]
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        self.group_a = list(self.group_a)
        self.group_b = list(self.group_b)

    def decompose(self, graph: ApplicationGraph) -> list[FaultRule]:
        crossing = graph.edges_across(self.group_a, self.group_b)
        if not crossing:
            raise RecipeError(
                f"NetworkPartition: no edges cross the cut"
                f" {self.group_a} | {self.group_b}"
            )
        return [
            abort(caller, callee, error=TCP_RESET, pattern=self.pattern)
            for caller, callee in crossing
        ]

    def describe(self) -> str:
        return f"partition({self.group_a} | {self.group_b})"


@_scenario
class FakeSuccess(_ServiceScenario):
    """Paper Section 5's ``FakeSuccess``: corrupt successful replies.

    Rewrites the payload of responses from a service to all its
    dependents (e.g. ``key`` -> ``badkey``) "to trigger unexpected
    behavior in services that depend on Service1" — an input-validation
    probe.
    """

    kind = "fake_success"

    pattern: _t.Union[str, bytes] = "key"
    replace_bytes: _t.Union[str, bytes] = "badkey"
    id_pattern: _t.Optional[str] = "test-*"

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            modify(
                dependent,
                self.service,
                pattern=self.pattern,
                replace_bytes=self.replace_bytes,
                id_pattern=self.id_pattern,
            )
        ]

    def describe(self) -> str:
        return f"fake_success({self.service})"


@_scenario
class RetryStorm(_ServiceScenario):
    """A service answers every caller with a retryable error.

    Inspired by SREGym's ``rpc_retry_storm`` problem class: unlike
    :class:`Crash` (a TCP-level reset), the service stays up but
    returns an application-level 5xx that naive clients treat as
    transient — provoking every caller's retry loop simultaneously.
    One user request amplifies into a hammering storm wherever retries
    are unbounded; callers with breakers go quiet after the threshold.
    """

    kind = "retry_storm"

    error: int = 503
    pattern: str = "test-*"
    probability: float = 1.0

    no_dependents = "service has no dependents to provoke"
    draw_fields = ("probability",)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            abort(
                dependent,
                self.service,
                error=self.error,
                pattern=self.pattern,
                probability=self.probability,
            )
        ]

    def describe(self) -> str:
        return f"retry_storm({self.service}, error={self.error})"


@_scenario
class GrayFailure(_ServiceScenario):
    """Slow-but-not-dead: a fraction of replies arrive late.

    The gray-failure class (SREGym's partial degradations): the
    service keeps answering correctly, but ``slow_fraction`` of its
    *responses* are delayed by ``interval``.  Health checks pass,
    errors never fire — only latency-sensitive callers (timeouts,
    hedging) notice.  ``slow_fraction=1.0`` is a deterministic
    response-path stall; fractional values exercise the probabilistic
    rule machinery.
    """

    kind = "gray_failure"

    interval: _t.Union[str, float] = "250ms"
    slow_fraction: float = 1.0
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slow_fraction <= 1.0:
            raise RecipeError(f"slow_fraction must be in [0, 1], got {self.slow_fraction}")
        self.interval = parse_duration(self.interval)

    draw_fields = ("slow_fraction",)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            delay(
                dependent,
                self.service,
                interval=self.interval,
                pattern=self.pattern,
                on="response",
                probability=self.slow_fraction,
            )
        ]

    def describe(self) -> str:
        return (
            f"gray_failure({self.service}, {self.interval:g}s"
            f" on {self.slow_fraction:.0%} of replies)"
        )


@_scenario
class Misconfiguration(_ServiceScenario):
    """A deploy-time config error: wrong endpoint or garbage replies.

    SREGym's misconfiguration problems (wrong port, bad image) as seen
    from the network.  ``mode="endpoint"`` makes every call to the
    service answer 404 — the callee is up but the caller dials a route
    that does not exist.  ``mode="reply"`` leaves routing intact but
    corrupts every reply body (``reply_pattern`` -> ``replace_bytes``)
    — the always-invalid-reply shape of a service running the wrong
    build.  Both are fully deterministic.
    """

    kind = "misconfiguration"

    _MODES: _t.ClassVar[tuple[str, ...]] = ("endpoint", "reply")

    mode: str = "endpoint"
    error: int = 404
    reply_pattern: _t.Union[str, bytes] = "ok"
    replace_bytes: _t.Union[str, bytes] = "<garbage>"
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise RecipeError(
                f"Misconfiguration mode must be one of {self._MODES}, got {self.mode!r}"
            )

    def rules_from(self, dependent: str) -> list[FaultRule]:
        if self.mode == "endpoint":
            return [abort(dependent, self.service, error=self.error, pattern=self.pattern)]
        return [
            modify(
                dependent,
                self.service,
                pattern=self.reply_pattern,
                replace_bytes=self.replace_bytes,
                id_pattern=self.pattern,
            )
        ]

    def describe(self) -> str:
        detail = f"error={self.error}" if self.mode == "endpoint" else "garbage replies"
        return f"misconfiguration({self.service}, {self.mode}: {detail})"


@_scenario
class ResourceExhaustion(_ServiceScenario):
    """Load-dependent degradation ending in load shedding.

    Models a service hitting a resource ceiling under arrival
    pressure: the first ``shed_after`` requests on each caller edge
    queue (a Delay of ``interval``), and every request after that is
    shed with 429 Too Many Requests.  Decomposes to an Abort armed
    with ``skip_matches=shed_after`` ahead of a Delay budgeted with
    ``max_matches=shed_after`` — first-match-wins makes the two rules
    partition the stream deterministically, exercising the skip/budget
    machinery end to end.
    """

    kind = "resource_exhaustion"

    interval: _t.Union[str, float] = "100ms"
    shed_after: int = 4
    error: int = 429
    pattern: str = "test-*"

    def __post_init__(self) -> None:
        if self.shed_after < 1:
            raise RecipeError(f"shed_after must be >= 1, got {self.shed_after}")
        self.interval = parse_duration(self.interval)

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            abort(
                dependent,
                self.service,
                error=self.error,
                pattern=self.pattern,
                skip_matches=self.shed_after,
            ),
            delay(
                dependent,
                self.service,
                interval=self.interval,
                pattern=self.pattern,
                max_matches=self.shed_after,
            ),
        ]

    def describe(self) -> str:
        return (
            f"resource_exhaustion({self.service}, {self.interval:g}s queueing,"
            f" shed {self.error} after {self.shed_after})"
        )


@_scenario
class NoOpControl(_ServiceScenario):
    """A control scenario that installs rules but never fires them.

    False-positive calibration (SREGym's no-op problems): the full
    injection machinery runs — rules decompose, install, and
    structurally match — but ``probability=0`` means no message is
    ever touched.  Any check that fails under a NoOpControl fails
    fault-free too, so a campaign lane running it measures the
    assertion suite's false-positive rate.
    """

    kind = "noop_control"

    pattern: str = "test-*"

    def rules_from(self, dependent: str) -> list[FaultRule]:
        return [
            abort(dependent, self.service, error=503, pattern=self.pattern, probability=0.0)
        ]

    def describe(self) -> str:
        return f"noop_control({self.service})"


#: Every scenario kind the spec codec can name, by :attr:`~FailureScenario.kind`.
SCENARIO_KINDS: dict[str, type[FailureScenario]] = {
    cls.kind: cls
    for cls in (
        AbortCalls,
        DelayCalls,
        ModifyReplies,
        Disconnect,
        Crash,
        Hang,
        Overload,
        Degrade,
        NetworkPartition,
        FakeSuccess,
        RetryStorm,
        GrayFailure,
        Misconfiguration,
        ResourceExhaustion,
        NoOpControl,
    )
}

"""Pattern checks (bottom block of paper Table 3).

Each check validates, purely from network observations, that a service
implements one of the resiliency design patterns of Section 2.1:

* :class:`HasTimeouts` — Src answers its upstream callers within a
  latency bound even while its own dependencies misbehave.
* :class:`HasBoundedRetries` — after repeated failures, Src sends at
  most MaxTries more requests to Dst within a window (built from
  ``Combine`` exactly as the paper's listing shows).
* :class:`HasCircuitBreaker` — Threshold failures are followed by a
  Tdelta-long silence on the wire, then recovery probes.
* :class:`HasBulkhead` — while SlowDst is degraded, Src keeps calling
  its *other* dependents at a healthy rate.

Checks return a :class:`CheckResult` rather than a bare boolean so
recipe reports can explain *why* something failed — the quick feedback
loop the paper argues makes systematic testing valuable.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.core.assertions import (
    AtLeastRequests,
    AtMostRequests,
    BaseAssertion,
    CheckStatus,
    Combine,
    CountingStep,
    span_rate,
)
from repro.core.queries import RList, dependents_scope, observed_statuses
from repro.logstore.query import Query
from repro.logstore.record import ObservationKind
from repro.logstore.store import EventStore
from repro.util import parse_duration

__all__ = [
    "CheckResult",
    "PatternCheck",
    "CheckFailures",
    "HasTimeouts",
    "HasBoundedRetries",
    "HasCircuitBreaker",
    "HasBulkhead",
]


#: ``_requests_scope(src, dst, id_pattern, since, until)``: the
#: ``GetRequests`` query a (src, dst)-scoped check evaluates over.  Kept
#: in one place so a check's :meth:`PatternCheck.scopes` and its
#: ``run`` build exactly the Query that
#: :func:`~repro.core.queries.get_requests` issues.  A partial of
#: ``Query``, whose fields lead with these, so building a scope costs no
#: frame of its own.
_requests_scope = functools.partial(Query, ObservationKind.REQUEST)


@dataclasses.dataclass
class CheckResult:
    """Outcome of a pattern check, with explanation and evidence."""

    name: str
    passed: bool
    detail: str
    #: Check-specific evidence (counts, latencies, step traces).
    data: dict = dataclasses.field(default_factory=dict)
    #: True when there were no observations to judge — the check failed
    #: for lack of evidence, not because the pattern is proven absent.
    inconclusive: bool = False

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        mark = "PASS" if self.passed else ("INCONCLUSIVE" if self.inconclusive else "FAIL")
        return f"[{mark}] {self.name}: {self.detail}"


class PatternCheck:
    """Base class: a named, store-evaluable resiliency-pattern check.

    ``run`` reads an :class:`~repro.logstore.store.EventStore`.

    ``state``, when given, is a dict the caller keeps for this check,
    window and store, empty at first: a check that folds its scopes
    keeps its fold there and, called again with the same dict, reads
    only what the store gained since (``follow``).  Without it, ``run``
    is that fold from an empty state.  A check that keeps nothing
    ignores it.
    """

    #: Human-readable check name, set by subclasses.
    name = "pattern"

    def run(
        self,
        store: EventStore,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        state: _t.Optional[dict] = None,
    ) -> CheckResult:
        """Evaluate against the event store, optionally time-scoped."""
        raise NotImplementedError

    def scopes(
        self, since: _t.Optional[float] = None, until: _t.Optional[float] = None
    ) -> list[Query]:
        """The store queries this check will issue, when statically known.

        :class:`HasTimeouts` folds over its own two; the benchmark's
        store probes search them.  Checks whose queries depend on prior
        results (e.g. dependency discovery) may return a partial list.
        """
        return []

    def _no_data(self, detail: str) -> CheckResult:
        return CheckResult(self.name, passed=False, detail=detail, inconclusive=True)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same check type, same parameters.

        Mirrors :meth:`FailureScenario.__eq__` so recipes round-trip
        through the fuzzer's JSON repro artifacts.
        """
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            (key, repr(value)) for key, value in self.__dict__.items()
        ))))


class CheckFailures(CountingStep):
    """Base assertion: at least ``num_match`` *failed* outcomes.

    A failure is a 5xx status or a transport error (reset / timeout /
    refused) under the given ``with_rule`` view.  This generalizes
    ``CheckStatus`` for breaker validation, where the triggering
    failures may be resets (Crash) rather than one specific code.
    """

    def __init__(self, num_match: int, with_rule: bool = True) -> None:
        if num_match < 1:
            raise ValueError(f"num_match must be >= 1, got {num_match}")
        self.num_match = num_match
        self.with_rule = with_rule
        self.marks = functools.partial(_failure_marks, with_rule=with_rule)
        self.found = f"found {num_match} failed calls"
        self.short = f"/{num_match} failed calls observed"

    def __repr__(self) -> str:
        return f"CheckFailures({self.num_match}, withRule={self.with_rule})"


def _failure_marks(scope: RList, with_rule: bool) -> list:
    """:class:`CheckFailures`' marks: True for a failed call, None for
    one still pending, False for any other outcome."""
    return [
        None
        if record.status is None and record.error is None
        else (status is not None and status >= 500) or record.error is not None
        for status, record in zip(observed_statuses(scope, with_rule), scope)
    ]


class HasTimeouts(PatternCheck):
    """``HasTimeouts(Src, MaxLatency)``: bounded upstream response time.

    Examines every reply *from* ``src`` observed by its upstream
    callers.  Violations are replies slower than ``max_latency`` and
    calls that never completed at all (a hung service).  A service with
    working timeouts answers its callers within its own budget even
    when a dependency is held by a Delay fault — the property Fig 5
    shows ElasticPress lacking.
    """

    def __init__(self, src: str, max_latency: _t.Union[str, float], id_pattern: str = "*") -> None:
        self.src = src
        self.max_latency = parse_duration(max_latency)
        self.id_pattern = id_pattern
        self.name = f"HasTimeouts({src}, {self.max_latency:g}s)"

    def scopes(self, since=None, until=None):
        # Positional: the upstream replies and requests of ``src``.
        return [
            Query(ObservationKind.REPLY, None, self.src, self.id_pattern, since, until),
            Query(ObservationKind.REQUEST, None, self.src, self.id_pattern, since, until),
        ]

    def run(self, store, since=None, until=None, state=None):
        # The fold: the two scopes, the cursor after each, the replies
        # read, how many were slow and the slowest; the requests read
        # and those still pending.
        fold = {} if state is None else state
        if not fold:
            fold.update(scopes=self.scopes(since, until), replies=None, requests=None)
        reply_scope, request_scope = fold["scopes"]
        fresh, replies, fold["replies"] = store.follow(reply_scope, fold["replies"])
        if fresh:
            fold.update(replied=0, slow=0, max_observed=None)
        limit = self.max_latency
        latencies = [r.latency for r in replies if r.latency is not None]
        if latencies:
            slowest = max(latencies)
            # Only replies whose slowest is over the limit have any to count.
            if slowest > limit:
                fold["slow"] += len([x for x in latencies if x > limit])
            if fold["max_observed"] is None or slowest > fold["max_observed"]:
                fold["max_observed"] = slowest
        fold["replied"] += len(replies)
        fresh, requests, fold["requests"] = store.follow(request_scope, fold["requests"])
        if fresh:
            fold.update(called=0, pending=[])
        elif fold["pending"]:
            # Its outcome may have been written since the last read.
            fold["pending"] = [r for r in fold["pending"] if r.status is None and r.error is None]
        fold["called"] += len(requests)
        fold["pending"] += [r for r in requests if r.status is None and r.error is None]
        if not fold["called"]:
            return self._no_data(f"no upstream calls to {self.src!r} observed")
        replied, slow, unanswered = fold["replied"], fold["slow"], len(fold["pending"])
        max_observed = fold["max_observed"]
        detail = (
            f"{replied} replies from {self.src!r}: {slow} exceeded"
            f" {limit:g}s, {unanswered} calls never completed"
        )
        return CheckResult(
            self.name,
            not slow and not unanswered,
            detail,
            data={
                "replies": replied,
                "slow": slow,
                "unanswered": unanswered,
                "max_observed": 0.0 if max_observed is None else max_observed,
            },
        )


class HasBoundedRetries(PatternCheck):
    """``HasBoundedRetries(Src, Dst, MaxTries)`` — the paper's listing::

        RList = GetRequests(Src, Dst)
        Combine(RList, (CheckStatus, 503, 5, True),
                       (AtMostRequests, '1min', False, MaxTries))

    "if five replies with error codes are observed by Src, then Src
    should send at most MaxTries more requests to Dst within the next
    minute."

    ``failure_status=None`` widens the trigger from one specific status
    code to *any* failed call (5xx or transport error) — needed when the
    staged fault is a Crash, whose failures are TCP resets carrying no
    application status code.
    """

    def __init__(
        self,
        src: str,
        dst: str,
        max_tries: int,
        failure_status: _t.Optional[int] = 503,
        num_failures: int = 5,
        window: _t.Union[str, float] = "1min",
        id_pattern: str = "*",
    ) -> None:
        # Refuses bad parameters now, not at the first run with requests.
        _bounded_retries(failure_status, num_failures, window, max_tries)
        self.src = src
        self.dst = dst
        self.max_tries = max_tries
        self.failure_status = failure_status
        self.num_failures = num_failures
        self.window = window
        self.id_pattern = id_pattern
        self.name = f"HasBoundedRetries({src}, {dst}, {max_tries})"

    def scopes(self, since=None, until=None):
        return [_requests_scope(self.src, self.dst, self.id_pattern, since, until)]

    def run(self, store, since=None, until=None, state=None):
        rlist, tally = _edge_requests(self, store, since, until, state)
        if not rlist:
            return self._no_data(f"no requests {self.src!r} -> {self.dst!r} observed")
        chain, trigger_text = _bounded_retries(
            self.failure_status, self.num_failures, self.window, self.max_tries
        )
        result, tally = chain.resume(rlist, tally)
        if state is not None:
            state["tally"] = tally
        if not result.steps[0].passed:
            return self._no_data(
                f"fewer than {trigger_text} observed — fault not exercised"
            )
        return CheckResult(
            self.name,
            result.passed,
            result.steps[-1].detail,
            data={"requests": len(rlist), "trace": result.explain()},
        )


def _edge_requests(check, store, since, until, state) -> tuple[RList, _t.Any]:
    """The RList of ``check``'s edge and its trigger's saved tally.

    ``state`` keeps the scope, the cursor after the last read, the RList
    (the state's own list, extended by what arrived since) and the
    tally; a fresh read replaces the RList and drops the tally.
    """
    if not state:
        scope = _requests_scope(check.src, check.dst, check.id_pattern, since, until)
        _, rlist, cursor = store.follow(scope)
        if state is not None:
            state.update(scope=scope, cursor=cursor, rlist=rlist, tally=None)
        return rlist, None
    fresh, records, state["cursor"] = store.follow(state["scope"], state["cursor"])
    if fresh:
        state.update(rlist=records, tally=None)
    else:
        state["rlist"].extend(records)
    return state["rlist"], state["tally"]


# What a check's parameters fix is built once per parameter set, not on
# every run; a check keeps no built state itself, because its __dict__
# is its identity (``PatternCheck.__eq__``/``__hash__``, the spec codec).
# ``typed=True`` keeps ``503`` and ``503.0`` apart: they render differently.


@functools.lru_cache(maxsize=256, typed=True)
def _bounded_retries(
    failure_status: _t.Optional[int],
    num_failures: int,
    window: _t.Union[str, float],
    max_tries: int,
) -> tuple[Combine, str]:
    """:class:`HasBoundedRetries`' chain and its trigger's description."""
    if failure_status is None:
        trigger: BaseAssertion = CheckFailures(num_failures, with_rule=True)
        trigger_text = f"{num_failures} failed calls"
    else:
        trigger = CheckStatus(failure_status, num_failures, True)
        trigger_text = f"{num_failures} failures with status {failure_status}"
    return Combine(trigger, (AtMostRequests, window, False, max_tries)), trigger_text


@functools.lru_cache(maxsize=256, typed=True)
def _circuit_breaker(
    threshold: int,
    tdelta: float,
    half_open_allowance: int,
    check_recovery: bool,
    recovery_window: float,
    success_threshold: int,
) -> Combine:
    """:class:`HasCircuitBreaker`'s chain."""
    steps: list = [
        CheckFailures(threshold, with_rule=True),
        AtMostRequests(tdelta, True, half_open_allowance),
    ]
    if check_recovery:
        steps.append(AtLeastRequests(recovery_window, True, success_threshold))
    return Combine(*steps)


class HasCircuitBreaker(PatternCheck):
    """``HasCircuitBreaker(Src, Dst, Threshold, Tdelta, SuccessThreshold)``.

    "Threshold failed requests triggers absence of calls for Tdelta
    time.  SuccessThreshold requests should close the circuit breaker."

    Three chained steps over ``GetRequests(Src, Dst)``:

    1. ``Threshold`` failed calls are observed (any 5xx or transport
       error — Crash-induced resets count);
    2. near-silence on the wire for ``Tdelta`` (at most
       ``half_open_allowance`` probes tolerated, 0 by default — the
       paper's strict "absence of calls");
    3. when ``check_recovery`` (default True): at least
       ``success_threshold`` requests within ``recovery_window`` after
       the silent period, showing the breaker re-probes and closes.
    """

    def __init__(
        self,
        src: str,
        dst: str,
        threshold: int = 5,
        tdelta: _t.Union[str, float] = "1min",
        success_threshold: int = 1,
        half_open_allowance: int = 0,
        check_recovery: bool = True,
        recovery_window: _t.Union[str, float, None] = None,
        id_pattern: str = "*",
    ) -> None:
        self.src = src
        self.dst = dst
        self.threshold = threshold
        self.tdelta = parse_duration(tdelta)
        self.success_threshold = success_threshold
        self.half_open_allowance = half_open_allowance
        self.check_recovery = check_recovery
        self.recovery_window = (
            parse_duration(recovery_window) if recovery_window is not None else self.tdelta
        )
        self.id_pattern = id_pattern
        self.name = f"HasCircuitBreaker({src}, {dst}, {threshold}, {self.tdelta:g}s)"
        self._chain()  # refuses bad parameters now, as HasBoundedRetries does

    def _chain(self) -> Combine:
        return _circuit_breaker(
            self.threshold,
            self.tdelta,
            self.half_open_allowance,
            self.check_recovery,
            self.recovery_window,
            self.success_threshold,
        )

    def scopes(self, since=None, until=None):
        return [_requests_scope(self.src, self.dst, self.id_pattern, since, until)]

    def run(self, store, since=None, until=None, state=None):
        rlist, tally = _edge_requests(self, store, since, until, state)
        if not rlist:
            return self._no_data(f"no requests {self.src!r} -> {self.dst!r} observed")
        chain = self._chain()
        result, tally = chain.resume(rlist, tally)
        if state is not None:
            state["tally"] = tally
        if not result.steps[0].passed:
            return self._no_data(
                f"fewer than {self.threshold} failures observed — fault not exercised"
            )
        return CheckResult(
            self.name,
            result.passed,
            "; ".join(step.detail for step in result.steps[1:]),
            data={"requests": len(rlist), "trace": result.explain()},
        )


class HasBulkhead(PatternCheck):
    """``HasBulkHead(Src, SlowDst, Rate)``.

    "Ensures that service request rate is at least Rate to dependents
    other than SlowDst" — i.e. while ``slow_dst`` is degraded, ``src``
    keeps serving its other dependencies instead of stalling on a
    shared, exhausted pool.

    ``other_dsts`` may be given explicitly; otherwise every destination
    ``src`` was observed calling (besides ``slow_dst``) is checked.
    """

    def __init__(
        self,
        src: str,
        slow_dst: str,
        rate: float,
        other_dsts: _t.Optional[_t.Sequence[str]] = None,
        id_pattern: str = "*",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.src = src
        self.slow_dst = slow_dst
        self.rate = rate
        self.other_dsts = list(other_dsts) if other_dsts is not None else None
        self.id_pattern = id_pattern
        self.name = f"HasBulkhead({src}, slow={slow_dst}, rate>={rate:g}/s)"

    def scopes(self, since=None, until=None):
        if self.other_dsts is None:
            # Dependents are discovered from the trace; only the
            # discovery scope is statically known.
            return [dependents_scope(self.src, since, until)]
        return [
            _requests_scope(self.src, dst, self.id_pattern, since, until)
            for dst in self.other_dsts
        ]

    def run(self, store, since=None, until=None, state=None):
        # One read: each other dependent's request count and end stamps.
        # Given dependents are read as given, slow_dst included.
        given = self.other_dsts
        spans = store.request_spans(
            self.src, since, until, given, self.slow_dst if given is None else None, self.id_pattern
        )
        if not spans:
            return self._no_data(
                f"{self.src!r} has no observed dependents other than {self.slow_dst!r}"
            )
        rates = {dst: span_rate(count, first, last) for dst, count, first, last in spans}
        starved = {dst: r for dst, r in rates.items() if r < self.rate}
        passed = not starved
        detail = (
            f"rates to other dependents: "
            + ", ".join(f"{dst}={r:.2f}/s" for dst, r in sorted(rates.items()))
            + (f"; starved: {sorted(starved)}" if starved else "")
        )
        return CheckResult(self.name, passed, detail, data={"rates": rates})

"""Base assertions and the ``Combine`` operator (middle of Table 3).

Base assertions compute over an RList and return booleans so they can
be chained.  ``Combine`` evaluates a sequence of them in the style of a
state machine: each assertion that passes *consumes* the prefix of
records that satisfied it, and the next assertion sees only the
remainder, with its time window anchored at the consumption point —
exactly the semantics the paper uses to validate a circuit breaker
("upon seeing five API call failures, the caller should backoff for a
minute, before issuing more API calls").

Two API styles are provided, matching how the paper presents them:

* plain functions (``num_requests``, ``reply_latency``,
  ``request_rate``) for direct queries;
* assertion *classes* (:class:`CheckStatus`, :class:`AtMostRequests`,
  ...) whose instances are predicates over an RList and which
  ``Combine`` knows how to thread state through.  The classes are also
  callable so a bare ``CheckStatus(...)(rlist)`` works outside Combine.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import typing as _t

from repro.core.queries import RList, observed_latency, observed_statuses
from repro.util import parse_duration

__all__ = [
    "num_requests",
    "reply_latency",
    "request_rate",
    "span_rate",
    "StepOutcome",
    "BaseAssertion",
    "CountingStep",
    "CheckStatus",
    "AtMostRequests",
    "AtLeastRequests",
    "NoRequestsFor",
    "Combine",
    "combine",
]


# -- plain query functions ----------------------------------------------------


def num_requests(
    rlist: RList,
    tdelta: _t.Union[str, float, None] = None,
    with_rule: bool = True,
) -> int:
    """Number of records in ``rlist``, optionally within a time window.

    ``tdelta`` bounds the window starting at the first record's
    timestamp (the paper's optional ``Tdelta``).

    ``with_rule`` accounting: requests the caller sent are real in both
    views — a Gremlin Abort intercepted them, but the caller *did* send
    them — so request records always count.  Records synthesized by
    Gremlin itself (abort replies) exist only in the caller-observed
    view and are excluded when ``with_rule=False``.
    """
    if not rlist:
        return 0
    records: _t.Iterable = rlist
    if tdelta is not None:
        horizon = rlist[0].timestamp + parse_duration(tdelta)
        records = (r for r in rlist if r.timestamp <= horizon)
    if with_rule:
        return sum(1 for _ in records)
    return sum(1 for r in records if not r.gremlin_generated)


def reply_latency(rlist: RList, with_rule: bool = True) -> list[float]:
    """Latency of each reply in ``rlist`` (see Table 3).

    ``with_rule=True`` gives caller-observed latencies (injected delays
    included); ``with_rule=False`` gives the callee's untampered
    timings and drops Gremlin-synthesized replies.
    """
    latencies = []
    for record in rlist:
        value = observed_latency(record, with_rule)
        if value is not None:
            latencies.append(value)
    return latencies


def request_rate(rlist: RList) -> float:
    """Rate of requests (req/sec) across the span of ``rlist``.

    A single record (or an empty list) has no measurable span; the
    rate is defined as 0.0 in that case.
    """
    if not rlist:
        return 0.0
    return span_rate(len(rlist), rlist[0].timestamp, rlist[-1].timestamp)


def span_rate(count: int, first: _t.Optional[float], last: _t.Optional[float]) -> float:
    """Rate of ``count`` requests stamped from ``first`` to ``last``:
    ``count - 1`` gaps over the span, 0.0 below two requests or over a
    span of no length (:func:`request_rate` of such a list, from the
    three numbers an index keeps)."""
    if count < 2:
        return 0.0
    span = last - first
    if span <= 0:
        return 0.0
    return (count - 1) / span


def _window_end(rlist: RList, start: int, horizon: float) -> int:
    """First index >= ``start`` whose record is past ``horizon``.

    RLists are time-sorted by contract, so the records inside a window
    form a contiguous prefix of the unconsumed suffix and two-pointer
    bisection finds its end without materializing anything.  (Manual
    bisect: :func:`bisect.bisect_right` only grew ``key=`` in 3.10.)
    """
    lo, hi = start, len(rlist)
    while lo < hi:
        mid = (lo + hi) // 2
        if rlist[mid].timestamp <= horizon:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _count_in_window(rlist: RList, start: int, end: int, with_rule: bool) -> int:
    """Request count of ``rlist[start:end]`` under the accounting view."""
    if with_rule:
        return end - start
    return len([record for record in rlist[start:end] if not record.gremlin_generated])


# -- assertion classes -----------------------------------------------------------


@dataclasses.dataclass
class StepOutcome:
    """Result of one assertion step inside :class:`Combine`."""

    passed: bool
    consumed: int
    detail: str
    #: Timestamp anchoring the next step's window (None = unchanged).
    anchor: _t.Optional[float] = None


class BaseAssertion:
    """A chainable predicate over an RList.

    ``evaluate`` receives the not-yet-consumed records plus the anchor
    timestamp established by the previous step (None on the first
    step), and reports pass/fail, how many leading records it consumed,
    and the next anchor.

    ``evaluate_from`` is the zero-copy variant :class:`Combine` uses:
    it sees the *full* RList plus a start offset, so chaining steps
    never slices the list.  Subclasses may implement either method; the
    default implementations delegate to each other (``consumed`` is
    always relative to the unconsumed suffix).
    """

    def evaluate(self, rlist: RList, anchor: _t.Optional[float]) -> StepOutcome:
        return self.evaluate_from(rlist, 0, anchor)

    def evaluate_from(
        self, rlist: RList, start: int, anchor: _t.Optional[float]
    ) -> StepOutcome:
        """Evaluate over ``rlist[start:]`` without copying it.

        The fallback slices for compatibility with assertions that only
        implement :meth:`evaluate`; the built-ins all override this
        with offset-based scans so a Combine chain is one pass over one
        shared list.
        """
        if type(self).evaluate is BaseAssertion.evaluate:
            raise NotImplementedError(
                f"{type(self).__name__} must implement evaluate() or evaluate_from()"
            )
        return self.evaluate(rlist[start:] if start else rlist, anchor)

    def __call__(self, rlist: RList) -> bool:
        """Standalone evaluation over a full RList."""
        return self.evaluate(rlist, None).passed


#: A counting step's progress through an RList: how many records it has
#: read, the positions of its first hits (at most ``num_match``, in
#: order), and the positions before the last of those whose record was
#: still pending.
Tally = _t.Tuple[int, _t.List[int], _t.List[int]]


class CountingStep(BaseAssertion):
    """A step that passes at the record bringing its hits to ``num_match``.

    It consumes the prefix through that record and anchors the next step
    at its time.  A subclass names a hit: ``marks(scope)`` gives one
    value per record, equal to ``hit`` for a hit and ``None`` wherever
    the record may still be pending (no status and no error yet), and
    ``found``/``short`` word the outcome.

    :meth:`fold` is the one evaluation.  Handed the tally it returned
    for a prefix of the same RList, it reads only the records past that
    prefix and re-reads the ones that were pending then: an outcome is
    written once, from pending to final, so only those can have become
    hits, possibly before the hits already found.  Once ``num_match``
    hits are found, later records cannot move the step.
    """

    #: The mark of a hit.
    hit: _t.Any = True
    num_match: int
    #: The outcome's detail, fixed when the step is built: ``found``
    #: when it passed, ``"only {matches}" + short`` when it did not.
    found: str
    short: str
    #: One mark per record of the scope it is given, in order; bound
    #: to its view in ``__init__``, so a scan costs no method frame.
    marks: _t.Callable[[RList], list]

    def fold(
        self, rlist: RList, tally: _t.Optional[Tally] = None
    ) -> tuple[StepOutcome, Tally]:
        """The step over all of ``rlist``, and the tally to resume from
        once records are appended to it."""
        hit, num_match = self.hit, self.num_match
        if tally is None:
            scanned, hits, pending = 0, [], []
        else:
            scanned, hits, pending = tally
            hits = hits[:]
            if pending:
                still = []
                for position in pending:
                    record = rlist[position]
                    if record.status is None and record.error is None:
                        still.append(position)
                    elif self.marks([record])[0] == hit:
                        bisect.insort(hits, position)
                pending = still
        if len(hits) < num_match and scanned < len(rlist):
            scope = rlist[scanned:] if scanned else rlist
            marks = self.marks(scope)
            index = -1
            for _ in range(min(marks.count(hit), num_match - len(hits))):
                index = marks.index(hit, index + 1)
                hits.append(scanned + index)
            if None in marks:
                pending = pending + [
                    scanned + index
                    for index, mark in enumerate(marks)
                    if mark is None and scope[index].status is None and scope[index].error is None
                ]
        if len(hits) >= num_match:
            del hits[num_match:]
            index = hits[-1]
            if pending:
                pending = [position for position in pending if position < index]
            outcome = StepOutcome(
                passed=True,
                consumed=index + 1,
                detail=self.found,
                anchor=rlist[index].timestamp,
            )
        else:
            outcome = StepOutcome(
                passed=False,
                consumed=len(rlist),
                detail=f"only {len(hits)}{self.short}",
            )
        return outcome, (len(rlist), hits, pending)

    def evaluate_from(
        self, rlist: RList, start: int, anchor: _t.Optional[float]
    ) -> StepOutcome:
        return self.fold(rlist[start:] if start else rlist)[0]


class CheckStatus(CountingStep):
    """Table 3's ``CheckStatus(RList, Status, NumMatch, withRule)``.

    Passes when at least ``num_match`` records returned ``status``.
    Inside Combine it consumes the prefix through the ``num_match``-th
    matching record and anchors the next step at that record's time.
    """

    def __init__(self, status: int, num_match: int, with_rule: bool = True) -> None:
        if num_match < 1:
            raise ValueError(f"num_match must be >= 1, got {num_match}")
        self.status = self.hit = status
        self.num_match = num_match
        self.with_rule = with_rule
        self.marks = functools.partial(observed_statuses, with_rule=with_rule)
        self.found = f"found {num_match} replies with status {status}"
        self.short = f"/{num_match} records returned status {status} (withRule={with_rule})"

    def __repr__(self) -> str:
        return f"CheckStatus({self.status}, {self.num_match}, withRule={self.with_rule})"


class AtMostRequests(BaseAssertion):
    """Table 3's ``AtMostRequests(RList, Tdelta, withRule, Num)``.

    Passes when at most ``num`` records fall inside the ``tdelta``
    window following the anchor (or the first record, standalone).
    Consumes every record inside the window.
    """

    def __init__(self, tdelta: _t.Union[str, float], with_rule: bool, num: int) -> None:
        if num < 0:
            raise ValueError(f"num must be >= 0, got {num}")
        self.tdelta = parse_duration(tdelta)
        self.with_rule = with_rule
        self.num = num

    def evaluate_from(
        self, rlist: RList, start: int, anchor: _t.Optional[float]
    ) -> StepOutcome:
        if anchor is None:
            anchor = rlist[start].timestamp if start < len(rlist) else 0.0
        horizon = anchor + self.tdelta
        end = _window_end(rlist, start, horizon)
        count = _count_in_window(rlist, start, end, self.with_rule)
        passed = count <= self.num
        return StepOutcome(
            passed=passed,
            consumed=end - start,
            detail=(
                f"{count} requests within {self.tdelta:g}s window"
                f" (limit {self.num}, withRule={self.with_rule})"
            ),
            anchor=horizon,
        )

    def __repr__(self) -> str:
        return f"AtMostRequests({self.tdelta:g}s, withRule={self.with_rule}, num={self.num})"


class AtLeastRequests(BaseAssertion):
    """Dual of :class:`AtMostRequests`: at least ``num`` in the window.

    Not in Table 3 verbatim, but needed to express the recovery half of
    circuit-breaker validation ("SuccessThreshold requests should close
    the circuit breaker") and bulkhead liveness.
    """

    def __init__(self, tdelta: _t.Union[str, float], with_rule: bool, num: int) -> None:
        if num < 0:
            raise ValueError(f"num must be >= 0, got {num}")
        self.tdelta = parse_duration(tdelta)
        self.with_rule = with_rule
        self.num = num

    def evaluate_from(
        self, rlist: RList, start: int, anchor: _t.Optional[float]
    ) -> StepOutcome:
        if anchor is None:
            anchor = rlist[start].timestamp if start < len(rlist) else 0.0
        horizon = anchor + self.tdelta
        end = _window_end(rlist, start, horizon)
        count = _count_in_window(rlist, start, end, self.with_rule)
        passed = count >= self.num
        return StepOutcome(
            passed=passed,
            consumed=end - start,
            detail=(
                f"{count} requests within {self.tdelta:g}s window"
                f" (minimum {self.num}, withRule={self.with_rule})"
            ),
            anchor=horizon,
        )

    def __repr__(self) -> str:
        return f"AtLeastRequests({self.tdelta:g}s, withRule={self.with_rule}, num={self.num})"


def NoRequestsFor(tdelta: _t.Union[str, float], with_rule: bool = True) -> AtMostRequests:
    """Convenience: silence for a window (``AtMostRequests(..., 0)``)."""
    return AtMostRequests(tdelta, with_rule, 0)


# -- Combine ------------------------------------------------------------------------


@dataclasses.dataclass
class CombineResult:
    """Outcome of a full Combine evaluation."""

    passed: bool
    steps: list[StepOutcome]
    #: Records left unconsumed after the final step.
    remainder: RList

    def __bool__(self) -> bool:
        return self.passed

    def explain(self) -> str:
        """Multi-line human-readable trace of each step."""
        lines = []
        for index, step in enumerate(self.steps):
            mark = "PASS" if step.passed else "FAIL"
            lines.append(f"  step {index + 1}: [{mark}] {step.detail}")
        return "\n".join(lines)


__all__.append("CombineResult")


class Combine:
    """Table 3's ``Combine(RList, (Assertion, args)...)`` operator.

    Steps may be :class:`BaseAssertion` instances or paper-style tuples
    ``(CheckStatus, 503, 5, True)`` — a class followed by its
    constructor arguments.  Evaluation threads the RList through the
    steps: each passing step's consumed prefix is discarded before the
    next step runs ("Combine automatically discards requests that have
    triggered the first assertion before passing RList to the second").
    Evaluation short-circuits on the first failing step.
    """

    def __init__(self, *steps: _t.Union[BaseAssertion, tuple]) -> None:
        if not steps:
            raise ValueError("Combine requires at least one assertion step")
        self.steps = [self._coerce(step) for step in steps]

    @staticmethod
    def _coerce(step: _t.Union[BaseAssertion, tuple]) -> BaseAssertion:
        if isinstance(step, BaseAssertion):
            return step
        if isinstance(step, tuple) and step and callable(step[0]):
            factory, *args = step
            built = factory(*args)
            if not isinstance(built, BaseAssertion):
                raise TypeError(f"{factory!r} did not build a BaseAssertion")
            return built
        raise TypeError(f"Combine step must be a BaseAssertion or (Class, args...), got {step!r}")

    def evaluate(self, rlist: RList) -> CombineResult:
        """Run the state machine over ``rlist``.

        Single pass over one shared list: consumption advances an
        offset instead of re-slicing the RList per step, so an
        N-step chain over K records costs O(K + steps), not O(K·steps).
        """
        return self.resume(rlist)[0]

    def resume(
        self, rlist: RList, tally: _t.Optional[Tally] = None
    ) -> tuple[CombineResult, _t.Optional[Tally]]:
        """:meth:`evaluate`, and the first step's tally to resume from.

        When the first step is a :class:`CountingStep`, ``tally`` is
        what an earlier call returned for a prefix of ``rlist``, and the
        trigger reads only what was appended since (see
        :meth:`CountingStep.fold`).  The later steps are windows bisected
        from the trigger's anchor, evaluated afresh.
        """
        offset = 0
        anchor: _t.Optional[float] = None
        outcomes: list[StepOutcome] = []
        for assertion in self.steps:
            if not outcomes and isinstance(assertion, CountingStep):
                outcome, tally = assertion.fold(rlist, tally)
            else:
                outcome = assertion.evaluate_from(rlist, offset, anchor)
            outcomes.append(outcome)
            if not outcome.passed:
                result = CombineResult(passed=False, steps=outcomes, remainder=rlist[offset:])
                return result, tally
            offset += outcome.consumed
            if outcome.anchor is not None:
                anchor = outcome.anchor
        return CombineResult(passed=True, steps=outcomes, remainder=rlist[offset:]), tally

    def __call__(self, rlist: RList) -> bool:
        return self.evaluate(rlist).passed


def combine(rlist: RList, *steps: _t.Union[BaseAssertion, tuple]) -> bool:
    """Paper-style invocation: ``combine(RList, (CheckStatus, ...), ...)``."""
    return Combine(*steps).evaluate(rlist).passed

"""Event primitives for the discrete-event simulation kernel.

The kernel is modelled after classic discrete-event simulators (and will
look familiar to SimPy users) but is implemented from scratch so the
whole reproduction is self-contained.  An :class:`SimEvent` is a one-shot
occurrence that processes may wait on; it is *triggered* exactly once,
either successfully (``succeed``) carrying a value, or unsuccessfully
(``fail``) carrying an exception.  Composite conditions
(:class:`AnyOf` / :class:`AllOf`) let a process race a response against
a timeout — the building block of the timeout resilience pattern.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from repro.errors import StaleEventError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.kernel import Simulator

__all__ = [
    "PENDING",
    "SimEvent",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
]


class _Pending:
    """Sentinel for an event that has not been triggered yet."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()


class SimEvent:
    """A one-shot occurrence inside a :class:`~repro.simulation.kernel.Simulator`.

    Lifecycle::

        ev = sim.event()      # not triggered
        ev.succeed(value)     # triggered ok; callbacks scheduled
        # or
        ev.fail(exc)          # triggered with failure

    Processes wait on events by ``yield``-ing them; the kernel registers
    a resume callback.  Failed events throw their exception into every
    waiting process.  An event whose failure is never consumed is
    recorded by the kernel (``sim.unhandled_failures``) rather than
    silently dropped, so tests can assert that no error went unnoticed.
    """

    # Events are the kernel's unit of allocation — a busy campaign makes
    # millions — so the whole hierarchy is slotted: no per-instance
    # __dict__, smaller objects, faster attribute access in the run loop.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[_t.Callable[["SimEvent"], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok: bool | None = None
        #: Set True once some process (or condition) consumed a failure.
        self.defused = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once this event's callbacks have run: a later
        ``add_callback`` or ``yield`` continues at once.  The kernel sets
        it when the event comes off the queue; a process that returns
        with nobody waiting sets it itself and is never queued."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise StaleEventError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The success value or failure exception. Only valid once triggered."""
        if self._value is PENDING:
            raise StaleEventError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "SimEvent":
        """Trigger the event successfully with ``value``.

        Returns the event itself so call sites can do
        ``return ev.succeed(x)``.
        """
        if self._value is not PENDING:
            raise StaleEventError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Triggering is a per-event cost on the request hot path, so both
        # scheduler lanes are inlined.  Calendar lane: an event triggered
        # while its timestamp's batch is draining joins that live batch
        # directly — no heap traffic at all.
        sim = self.sim
        if sim._calendar:
            batch = sim._now_batch
            if batch is not None:
                batch.append(self)
            else:
                sim._queue_triggered(self)
        else:
            _heappush(sim._heap, (sim._now, next(sim._counter), self))
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not PENDING:
            raise StaleEventError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        if sim._calendar:
            batch = sim._now_batch
            if batch is not None:
                batch.append(self)
            else:
                sim._queue_triggered(self)
        else:
            _heappush(sim._heap, (sim._now, next(sim._counter), self))
        return self

    def add_callback(self, callback: _t.Callable[["SimEvent"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else f"failed({self._value!r})"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(SimEvent):
    """An event that succeeds automatically after ``delay`` virtual time.

    ``yield sim.timeout(3.0)`` suspends the current process for three
    units of virtual time.  A negative delay is rejected.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        # Inlined SimEvent.__init__ and Simulator._schedule_at: timeouts
        # are the most-allocated event type (every injected delay, retry
        # backoff, and client budget makes one), and a non-negative delay
        # can never land in the past, so the scheduling guard is skipped.
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        if sim._calendar:
            when = sim._now + delay
            buckets = sim._buckets
            bucket = buckets.get(when)
            if bucket is not None:
                bucket.append(self)
            elif when <= sim._horizon:
                buckets[when] = [self]
                _heappush(sim._times, when)
            else:
                _heappush(sim._overflow, (when, next(sim._counter), self))
        else:
            _heappush(sim._heap, (sim._now + delay, next(sim._counter), self))

    def succeed(self, value: _t.Any = None) -> "SimEvent":  # pragma: no cover
        raise StaleEventError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "SimEvent":  # pragma: no cover
        raise StaleEventError("Timeout events trigger themselves")


class Condition(SimEvent):
    """Base for composite events over a list of child events.

    A condition evaluates a predicate over how many children have
    triggered successfully.  If any child *fails* before the condition
    triggers, the condition fails with that child's exception (and the
    child is marked ``defused`` so the kernel does not also report an
    unhandled failure).
    """

    __slots__ = ("events", "_evaluate", "_count")

    def __init__(
        self,
        sim: "Simulator",
        events: _t.Sequence[SimEvent],
        evaluate: _t.Callable[[int, int], bool],
    ) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self.events:
            # Degenerate condition triggers immediately.
            self._ok = True
            self._value = {}
            sim._schedule_at(sim.now, self)
            return
        check = self._check
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one Simulator")
            # Inlined add_callback: conditions are built on the request
            # hot path (every timeout race makes one).
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)

    def _check(self, ev: SimEvent) -> None:
        if self._value is not PENDING:
            if not ev._ok:
                # Condition already resolved; swallow late failures of
                # the losing branches (e.g. a timeout raced and lost).
                ev.defused = True
            return
        if not ev._ok:
            ev.defused = True
            self.fail(ev._value)
            return
        self._count += 1
        if self._evaluate(len(self.events), self._count):
            self.succeed(self._collect_values())

    def _collect_values(self) -> dict[SimEvent, _t.Any]:
        """Map each already-*processed* successful child to its value.

        ``processed`` (not merely ``triggered``) is the right test:
        Timeout events carry their value from construction, but they
        have not *occurred* until the kernel runs their callbacks.
        """
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}


def _any_done(total: int, done: int) -> bool:
    return done >= 1


def _all_done(total: int, done: int) -> bool:
    return done >= total


class AnyOf(Condition):
    """Triggers as soon as *one* child event succeeds.

    The canonical use is racing a response against a timeout::

        result = yield AnyOf(sim, [response_ev, sim.timeout(budget)])
        if response_ev in result:
            ...                      # response won
        else:
            ...                      # timed out
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: _t.Sequence[SimEvent]) -> None:
        # Flattened Condition/SimEvent init: conditions are built on the
        # request hot path (every timeout race makes one), and the
        # three-deep super() chain showed up in profiles.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self.events = evs = list(events)
        self._evaluate = _any_done
        self._count = 0
        if not evs:
            self._ok = True
            self._value = {}
            sim._schedule_at(sim.now, self)
            return
        check = self._check
        for ev in evs:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one Simulator")
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)

    def _check(self, ev: SimEvent) -> None:
        # Specialized: triggers on the first success, collecting values
        # with direct slot access (``callbacks is None`` == processed).
        if self._value is not PENDING:
            if not ev._ok:
                ev.defused = True
            return
        if not ev._ok:
            ev.defused = True
            self.fail(ev._value)
            return
        self._count += 1
        self.succeed(
            {e: e._value for e in self.events if e.callbacks is None and e._ok}
        )


class AllOf(Condition):
    """Triggers when *all* child events have succeeded.

    Useful for fan-out handlers that call several downstream services
    concurrently and join on all the responses.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: _t.Sequence[SimEvent]) -> None:
        # Flattened like AnyOf.__init__; see the comment there.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self.events = evs = list(events)
        self._evaluate = _all_done
        self._count = 0
        if not evs:
            self._ok = True
            self._value = {}
            sim._schedule_at(sim.now, self)
            return
        check = self._check
        for ev in evs:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one Simulator")
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)

    def _check(self, ev: SimEvent) -> None:
        # Specialized mirror of AnyOf._check for the join-on-all case.
        if self._value is not PENDING:
            if not ev._ok:
                ev.defused = True
            return
        if not ev._ok:
            ev.defused = True
            self.fail(ev._value)
            return
        self._count += 1
        if self._count >= len(self.events):
            self.succeed(
                {e: e._value for e in self.events if e.callbacks is None and e._ok}
            )

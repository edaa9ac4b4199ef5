"""The discrete-event simulator: virtual clock, event scheduler, run loop.

Why a simulator at all?  The paper staged failures against live Docker
deployments and measured multi-second behaviours (e.g. a 4 s injected
delay, a one-hour ``Hang``).  Re-running those on a laptop in wall-clock
time would be slow and non-deterministic.  Everything that is *timing
logic* — injected delays, client timeouts, retry backoff, breaker
recovery windows — runs here on a virtual clock instead, so a scenario
spanning hours of virtual time executes in milliseconds and every run
is bit-for-bit reproducible from its seed.

Scheduler
---------
Two interchangeable schedulers implement the same total order
``(timestamp, schedule sequence)``:

* ``"calendar"`` (default) — a bucketed calendar queue specialized for
  the timeout-dominated regime.  Events scheduled at the same virtual
  timestamp share one *bucket* (a plain list, appended in schedule
  order) and drain as a batch, so the heap pays one push/pop per
  **distinct timestamp** instead of one per event; events triggered at
  the current instant (``succeed``/``fail`` during a batch) append to
  the live batch and never touch a heap at all.  Timestamps beyond a
  sliding horizon land in an **overflow lane** — the classic binary
  heap, keyed ``(when, seq)`` — and migrate into buckets as the clock
  approaches, so far-future work (an hour-long ``Hang``) cannot bloat
  the bucket table.  The calendar scheduler also pools processed
  ``Timeout``/``SimEvent`` objects on free lists (see ``timeout()``).

* ``"heap"`` — the single binary heap the kernel used before the
  calendar queue, kept verbatim as the reference lane.  The
  scheduler-equivalence suite (tests/simulation/
  test_scheduler_equivalence.py) pins both to bit-for-bit identical
  event order, RNG draws, and outcomes.

Both break same-timestamp ties by a monotonic sequence: the heap lane
stores an explicit counter, the calendar lane relies on buckets being
appended in schedule order (which is the same total order, since the
counter increments exactly once per schedule).

The two wall-clock benchmarks of the paper (orchestration time, Fig 7;
rule-matching overhead, Fig 8) do *not* use virtual time: they measure
the real execution cost of our control-plane and matcher code.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random as _random
import sys
import typing as _t

from repro.errors import SimulationError
from repro.simulation.events import PENDING as _PENDING
from repro.simulation.events import AllOf, AnyOf, SimEvent, Timeout
from repro.simulation.process import Process

__all__ = ["SCHEDULERS", "DEFAULT_SCHEDULER", "Simulator"]

#: The interchangeable scheduler implementations.
SCHEDULERS = ("calendar", "heap")

#: Process-wide default, overridable for CI equivalence smokes without
#: threading a parameter through every deployment factory.
DEFAULT_SCHEDULER = os.environ.get("REPRO_SCHEDULER", "calendar")

#: How far past ``now`` (virtual seconds) the bucket table reaches;
#: later timestamps wait in the overflow heap until the clock nears.
CALENDAR_HORIZON = 256.0

#: Free lists are capped so a pathological burst cannot pin memory.
_POOL_MAX = 4096

# Free-list recycling is guarded by an exact reference count: an event
# is recycled only when the kernel provably holds the last references.
# Only CPython exposes refcounts; elsewhere the pools simply stay empty.
_getrefcount = getattr(sys, "getrefcount", None)


class Simulator:
    """A deterministic discrete-event simulation environment.

    Parameters
    ----------
    seed:
        Master seed.  Each named RNG stream obtained via :meth:`rng`
        derives deterministically from this seed and its name, so adding
        a new randomized component does not perturb existing streams.
    strict:
        When True (default), :meth:`run` raises at the end if any event
        failed and nobody consumed the failure — the simulation
        equivalent of "errors should never pass silently".
    scheduler:
        ``"calendar"`` (default) or ``"heap"``; see the module
        docstring.  Outcomes are bit-for-bit identical either way.
    horizon:
        Calendar-lane reach in virtual seconds; timestamps further out
        wait in the overflow heap.  Ignored by the heap scheduler.

    Example
    -------
    ::

        sim = Simulator(seed=42)

        def hello(sim):
            yield sim.timeout(3.0)
            return "done at %.1f" % sim.now

        proc = sim.process(hello(sim))
        sim.run()
        assert proc.value == "done at 3.0"
    """

    #: Events check this to pick the scheduling fast path without a
    #: method call; the heap subclass flips it.
    _calendar = True

    def __new__(
        cls,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
        horizon: float = CALENDAR_HORIZON,
    ) -> "Simulator":
        chosen = DEFAULT_SCHEDULER if scheduler is None else scheduler
        if chosen not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {chosen!r}; expected one of {SCHEDULERS}"
            )
        if cls is Simulator and chosen == "heap":
            return super().__new__(_HeapSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
        horizon: float = CALENDAR_HORIZON,
    ) -> None:
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        # Shadow the class attribute so the per-trigger branch in
        # events.py is a single instance-dict hit.
        self._calendar = type(self)._calendar
        self._now = 0.0
        self._seed = seed
        self._strict = strict
        self._counter = itertools.count()
        self._rngs: dict[str, _random.Random] = {}
        #: Failures that no process consumed; populated as they are seen.
        self.unhandled_failures: list[SimEvent] = []
        # -- calendar lanes --------------------------------------------------
        #: timestamp -> events at that instant, in schedule order.
        self._buckets: dict[float, list[SimEvent]] = {}
        #: Min-heap of live bucket timestamps (one entry per bucket).
        self._times: list[float] = []
        #: Far-future lane: classic ``(when, seq, event)`` heap.
        self._overflow: list[tuple[float, int, SimEvent]] = []
        self._span = horizon
        self._horizon = self._now + horizon
        #: The bucket currently draining (events triggered *now* append
        #: straight to it); None between batches.
        self._now_batch: list[SimEvent] | None = None
        #: Events of ``_now_batch`` already processed (only maintained
        #: by :meth:`step`; :meth:`run` drains whole batches).
        self._batch_pos = 0
        # -- free lists ------------------------------------------------------
        self._pooling = _getrefcount is not None
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[SimEvent] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (arbitrary units; we use seconds)."""
        return self._now

    @property
    def seed(self) -> int:
        """The master seed this simulator was created with."""
        return self._seed

    @property
    def scheduler(self) -> str:
        """Which scheduler implementation this simulator runs on."""
        return "calendar" if self._calendar else "heap"

    # -- randomness ------------------------------------------------------------

    def rng(self, stream: str) -> _random.Random:
        """Return the named deterministic RNG stream.

        Separate components (e.g. each fault rule's probability draw,
        each latency model) should use separate stream names so their
        draws do not interleave and perturb one another across runs.
        """
        if stream not in self._rngs:
            self._rngs[stream] = _random.Random(f"{self._seed}/{stream}")
        return self._rngs[stream]

    # -- event construction ----------------------------------------------------

    def event(self) -> SimEvent:
        """Create a fresh, untriggered event bound to this simulator.

        Recycles a pooled instance when one is free: the run loop
        returns processed events to a free list once it proves (by
        exact reference count) that nothing else can still see them.
        """
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev._ok = None
            ev._value = _PENDING
            ev.defused = False
            return ev
        return SimEvent(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` time units from now.

        Timeouts are the kernel's unit of allocation churn (every
        injected delay, retry backoff, and client budget makes one), so
        this is the pooled fast path; see :meth:`event`.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"timeout delay must be >= 0, got {delay}")
            ev = pool.pop()
            ev._ok = True
            ev._value = value
            ev.defused = False
            ev.delay = delay
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is not None:
                bucket.append(ev)
            elif when <= self._horizon:
                buckets[when] = [ev]
                heapq.heappush(self._times, when)
            else:
                heapq.heappush(self._overflow, (when, next(self._counter), ev))
            return ev
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``; returns the Process."""
        return Process(self, generator, name=name)

    def any_of(self, events: _t.Sequence[SimEvent]) -> AnyOf:
        """Condition that triggers when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: _t.Sequence[SimEvent]) -> AllOf:
        """Condition that triggers when all of ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling (kernel internal, used by events) -------------------------

    def _schedule_at(self, when: float, event: SimEvent) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now={self._now})"
            )
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is not None:
            bucket.append(event)
        elif when <= self._horizon:
            buckets[when] = [event]
            heapq.heappush(self._times, when)
        else:
            heapq.heappush(self._overflow, (when, next(self._counter), event))

    def _queue_triggered(self, event: SimEvent) -> None:
        """Queue an already-triggered event for callback processing now."""
        batch = self._now_batch
        if batch is not None:
            batch.append(event)
        else:
            self._schedule_at(self._now, event)

    def _advance(self, when: float) -> None:
        """Move the clock to ``when`` and pull newly-due overflow events
        into buckets.  Migration happens *before* any callback at
        ``when`` runs, so later same-timestamp appends always land
        after already-scheduled (lower-sequence) overflow events."""
        self._now = when
        horizon = when + self._span
        self._horizon = horizon
        overflow = self._overflow
        if overflow and overflow[0][0] <= horizon:
            buckets = self._buckets
            times = self._times
            while overflow and overflow[0][0] <= horizon:
                owhen, _seq, event = heapq.heappop(overflow)
                bucket = buckets.get(owhen)
                if bucket is not None:
                    bucket.append(event)
                else:
                    buckets[owhen] = [event]
                    heapq.heappush(times, owhen)

    def _next_time(self) -> float:
        """Earliest pending *batch* timestamp (ignores a live batch).

        The bucket invariant makes this one comparison: every bucket
        timestamp is <= the horizon and every overflow timestamp is
        beyond it, so the times-heap minimum wins whenever it exists.
        """
        if self._times:
            return self._times[0]
        if self._overflow:
            return self._overflow[0][0]
        return float("inf")

    # -- run loop -----------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event in the queue.

        Semantically identical to one iteration of :meth:`run`'s loop
        (the cross-check suite in tests/simulation/test_step_run_parity
        pins this); pooling is skipped so single-stepped debugging never
        recycles objects under the debugger's feet.
        """
        batch = self._now_batch
        if batch is not None and self._batch_pos < len(batch):
            event = batch[self._batch_pos]
            self._batch_pos += 1
        else:
            if batch is not None:
                del self._buckets[self._now]
                self._now_batch = None
                self._batch_pos = 0
            when = self._next_time()
            if when == float("inf"):
                raise IndexError("step() from an empty schedule")
            self._advance(when)
            heapq.heappop(self._times)
            batch = self._buckets[when]
            self._now_batch = batch
            self._batch_pos = 1
            event = batch[0]
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        batch = self._now_batch
        if batch is not None and self._batch_pos < len(batch):
            return self._now
        return self._next_time()

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains or virtual time ``until``.

        With ``until`` given, the clock is advanced exactly to ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        limit = float("inf") if until is None else until
        # This loop dominates every simulation's profile: lanes, pools,
        # and the failure list are bound to locals, batches drain with
        # the C-level list iterator (which by definition picks up
        # same-timestamp appends made by callbacks mid-drain), and any
        # semantic change here must land in ``step`` too — the two are
        # one algorithm in two shapes.
        buckets = self._buckets
        times = self._times
        overflow = self._overflow
        span = self._span
        unhandled = self.unhandled_failures
        pop = heapq.heappop
        push = heapq.heappush
        refcount = _getrefcount
        pooling = self._pooling
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        batch = self._now_batch
        if batch is not None:
            # Resume a batch left half-drained by step().
            pos = self._batch_pos
            while pos < len(batch):
                event = batch[pos]
                pos += 1
                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None, "event processed twice"
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    unhandled.append(event)
            del buckets[self._now]
            self._now_batch = None
            self._batch_pos = 0
        while True:
            if times:
                when = times[0]
            elif overflow:
                when = overflow[0][0]
            else:
                break
            if when > limit:
                break
            # ``_advance(when)``, inlined: one call per distinct timestamp
            # is a sixth of this loop's calls on request traffic.
            self._now = when
            horizon = self._horizon = when + span
            while overflow and overflow[0][0] <= horizon:
                owhen, _seq, event = pop(overflow)
                bucket = buckets.get(owhen)
                if bucket is not None:
                    bucket.append(event)
                else:
                    buckets[owhen] = [event]
                    push(times, owhen)
            pop(times)  # == when: any earlier overflow has just migrated
            batch = buckets[when]
            self._now_batch = batch
            for event in batch:
                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None, "event processed twice"
                # The detached list cannot grow mid-iteration (add_callback
                # on a processed event invokes immediately), so the
                # overwhelmingly common single-waiter case skips the
                # iterator.
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok:
                    # Free-list recycling: an exact refcount of 3 means
                    # the only references left are the batch slot, the
                    # loop variable, and refcount()'s own argument —
                    # nothing outside this frame can ever see the event
                    # again, so it (and its emptied callbacks list) is
                    # safe to reuse.  Subclasses (Process, conditions)
                    # never match the exact type checks.
                    if pooling:
                        cls = event.__class__
                        if cls is Timeout:
                            if (
                                len(timeout_pool) < _POOL_MAX
                                and refcount(event) == 3
                            ):
                                callbacks.clear()
                                event.callbacks = callbacks
                                timeout_pool.append(event)
                        elif (
                            cls is SimEvent
                            and len(event_pool) < _POOL_MAX
                            and refcount(event) == 3
                        ):
                            callbacks.clear()
                            event.callbacks = callbacks
                            event_pool.append(event)
                elif not event.defused:
                    unhandled.append(event)
            del buckets[when]
            self._now_batch = None
        if until is not None:
            self._now = max(self._now, until)
        if self._strict and self.unhandled_failures:
            failures = ", ".join(repr(ev.value) for ev in self.unhandled_failures[:5])
            raise SimulationError(
                f"{len(self.unhandled_failures)} unhandled event failure(s): {failures}"
            )

    def _pending(self) -> int:
        pending = sum(len(bucket) for bucket in self._buckets.values())
        pending += len(self._overflow)
        if self._now_batch is not None:
            pending -= self._batch_pos
        return pending

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.6f} pending={self._pending()}>"


class _HeapSimulator(Simulator):
    """The pre-calendar scheduler, verbatim: one binary heap ordered by
    ``(timestamp, sequence)``.

    Kept as the reference implementation the equivalence suite compares
    the calendar queue against; request it with
    ``Simulator(scheduler="heap")`` or ``REPRO_SCHEDULER=heap``.  No
    free-list pooling — this lane optimizes for being obviously correct.
    """

    _calendar = False

    def __init__(
        self,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
        horizon: float = CALENDAR_HORIZON,
    ) -> None:
        super().__init__(seed, strict, scheduler="heap", horizon=horizon)
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._pooling = False

    def _schedule_at(self, when: float, event: SimEvent) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now={self._now})"
            )
        heapq.heappush(self._heap, (when, next(self._counter), event))

    def _queue_triggered(self, event: SimEvent) -> None:
        heapq.heappush(self._heap, (self._now, next(self._counter), event))

    def step(self) -> None:
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | None = None) -> None:
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        heap = self._heap
        pop = heapq.heappop
        unhandled = self.unhandled_failures
        limit = float("inf") if until is None else until
        while heap:
            if heap[0][0] > limit:
                break
            when, _seq, event = pop(heap)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                unhandled.append(event)
        if until is not None:
            self._now = max(self._now, until)
        if self._strict and self.unhandled_failures:
            failures = ", ".join(repr(ev.value) for ev in self.unhandled_failures[:5])
            raise SimulationError(
                f"{len(self.unhandled_failures)} unhandled event failure(s): {failures}"
            )

    def _pending(self) -> int:
        return len(self._heap)
